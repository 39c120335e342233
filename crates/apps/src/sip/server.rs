//! SIP UAS: the server side of the SipStone scenario.
//!
//! Handles the INVITE → 200 OK → ACK → … → BYE → 200 OK transaction flow
//! over either transport:
//!
//! * **UD**: a main datagram socket receives INVITEs; per the paper's
//!   setup ("one socket per client"), each call gets a dedicated datagram
//!   socket and the 200 OK is sent from it, so in-dialog requests arrive
//!   there (the SIP-over-UDP analog of a media-port allocation).
//! * **RC**: a stream listener accepts one connection per client; SIP
//!   messages are framed out of the byte stream by Content-Length.
//!
//! Every call tracks `call_state_bytes` of application bookkeeping in the
//! `sip_call` memory category — the "additional book keeping to keep track
//! of the states of the calls" the paper identifies as the gap between its
//! theoretical 28.1 % and measured 24.1 % memory savings.
//!
//! The server is a single-threaded event loop, so thousands of concurrent
//! calls cost memory (the thing Fig. 11 measures), not threads. On UD it
//! has two drive modes, chosen by the stack's `qp.poll_mode`:
//!
//! * **Scan** (poll-mode stacks, which cannot park) — short-timeout
//!   receive on the main socket, periodic O(active calls) scan of every
//!   call socket.
//! * **Event** (threaded stacks) — all sockets subscribe to the stack's
//!   completion channel and the server parks in
//!   [`SocketStack::wait_ready`], touching only sockets with work. Idle
//!   cost drops from a continuous scan to zero, and per-message cost from
//!   O(calls) to O(ready).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use iwarp::IwarpResult;
use iwarp_common::memacct::MemScope;
use iwarp_common::slab::{Handle, Slab, SlabStats};
use iwarp_socket::{DgramProfile, DgramSocket, SocketStack, StreamSocket};
use simnet::Addr;

use super::codec::{SipMessage, SipMethod, SipScratch, SipView};

/// Which transport the server speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SipTransport {
    /// Datagram-iWARP (UD QPs) — connectionless.
    Ud,
    /// Connected iWARP (RC QPs over the TCP-like stream).
    Rc,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct SipServerConfig {
    /// Transport to serve.
    pub transport: SipTransport,
    /// Port of the main socket / listener.
    pub port: u16,
    /// Application bookkeeping bytes per active call (tracked in the
    /// `sip_call` category; identical for both transports).
    pub call_state_bytes: u64,
}

impl Default for SipServerConfig {
    fn default() -> Self {
        Self {
            transport: SipTransport::Ud,
            port: 5060,
            call_state_bytes: 1024,
        }
    }
}

/// Live counters shared with the controlling thread.
#[derive(Debug, Default)]
pub struct SipServerStats {
    /// Currently established (or establishing) calls.
    pub active_calls: AtomicU64,
    /// INVITEs answered.
    pub invites: AtomicU64,
    /// ACKs seen (dialogs confirmed).
    pub acks: AtomicU64,
    /// BYEs answered.
    pub byes: AtomicU64,
    /// Messages that failed to parse.
    pub parse_errors: AtomicU64,
}

struct Shared {
    stats: SipServerStats,
    shutdown: AtomicBool,
}

/// Handle to a running SIP server; dropping it stops the event loop.
pub struct SipServer {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<IwarpResult<()>>>,
}

impl SipServer {
    /// Spawns the server event loop on `stack`.
    pub fn spawn(stack: SocketStack, cfg: SipServerConfig) -> IwarpResult<Self> {
        let shared = Arc::new(Shared {
            stats: SipServerStats::default(),
            shutdown: AtomicBool::new(false),
        });
        let shared2 = Arc::clone(&shared);
        // Bind inside the caller's context so failures surface here.
        let thread = match cfg.transport {
            SipTransport::Ud => {
                let main = stack.dgram_bound(cfg.port)?;
                let evented = !stack.config().qp.poll_mode;
                std::thread::Builder::new()
                    .name("sip-uas-ud".into())
                    .spawn(move || {
                        if evented {
                            ud_event_loop_evented(&stack, &main, &cfg, &shared2)
                        } else {
                            ud_event_loop(&stack, main, &cfg, &shared2)
                        }
                    })
                    .expect("spawn SIP server")
            }
            SipTransport::Rc => {
                let listener = stack.listen(cfg.port)?;
                std::thread::Builder::new()
                    .name("sip-uas-rc".into())
                    .spawn(move || rc_event_loop(&stack, &listener, &cfg, &shared2))
                    .expect("spawn SIP server")
            }
        };
        Ok(Self {
            shared,
            thread: Some(thread),
        })
    }

    /// Live counters.
    #[must_use]
    pub fn stats(&self) -> &SipServerStats {
        &self.shared.stats
    }

    /// Stops the event loop and returns its final result.
    pub fn stop(mut self) -> IwarpResult<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => t.join().expect("SIP server thread"),
            None => Ok(()),
        }
    }
}

impl Drop for SipServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Main-socket drain batch for the evented loop (`recv_many` vector size).
const MAIN_BATCH: usize = 32;

/// One UD call record — a compact slab entry: its dedicated socket, the
/// dialog's Call-ID (owned once at INVITE time, never re-cloned on the
/// in-dialog path), and tracked application state.
struct UdCall {
    call_id: String,
    sock: DgramSocket,
    _state: Option<MemScope>,
}

/// The server's call table: slab-backed records (backing bytes reported
/// under `sip_call_table`, activity under `mem.slab.*`) plus a
/// Call-ID → handle index used only on the main-socket path (INVITE
/// dedup). In-dialog traffic routes by fd → handle and never touches the
/// string index.
struct UdCalls {
    slab: Slab<UdCall>,
    index: HashMap<String, Handle>,
}

impl UdCalls {
    fn new(stack: &SocketStack) -> Self {
        let mut slab = Slab::new();
        if let Some(reg) = stack.device().mem() {
            slab = slab.with_mem(reg.track("sip_call_table", 0));
        }
        let stats = SlabStats::new();
        stack.device().telemetry().attach_slab(stats.clone());
        Self {
            slab: slab.with_stats(stats),
            index: HashMap::new(),
        }
    }

    fn insert(&mut self, call: UdCall) -> Handle {
        let id = call.call_id.clone();
        let h = self.slab.insert(call);
        self.index.insert(id, h);
        h
    }

    fn remove(&mut self, h: Handle) {
        if let Some(call) = self.slab.remove(h) {
            self.index.remove(&call.call_id);
        }
    }
}

fn ud_event_loop(
    stack: &SocketStack,
    main: DgramSocket,
    cfg: &SipServerConfig,
    shared: &Shared,
) -> IwarpResult<()> {
    let mut calls = UdCalls::new(stack);
    let mut scratch = new_scratch(stack);
    let mut buf = vec![0u8; 8 * 1024];
    let mut finished: Vec<Handle> = Vec::new();
    let mut passes_since_scan = 0u32;
    while !shared.shutdown.load(Ordering::Relaxed) {
        // New transactions arrive on the main socket.
        let mut main_idle = false;
        match main.recv_from(&mut buf, Duration::from_millis(1)) {
            Ok((n, src)) => {
                if let Ok(msg) = SipView::parse(&buf[..n]) {
                    handle_ud_message(stack, cfg, shared, &mut calls, &main, &msg, src, &mut scratch)?;
                } else {
                    shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(iwarp::IwarpError::PollTimeout) => main_idle = true,
            Err(e) => return Err(e),
        }
        // In-dialog requests arrive on per-call sockets. Scanning all of
        // them is O(active calls); do it when the main socket goes idle
        // (in-dialog traffic is then the likely pending work) or
        // periodically during setup storms, so call establishment stays
        // O(n) overall rather than O(n²).
        passes_since_scan += 1;
        if !main_idle && passes_since_scan < 64 {
            continue;
        }
        passes_since_scan = 0;
        finished.clear();
        for (h, call) in calls.slab.iter_mut() {
            if drain_call_socket(call, shared, &mut scratch)? {
                finished.push(h);
            }
        }
        for h in finished.drain(..) {
            calls.remove(h);
            shared.stats.active_calls.fetch_sub(1, Ordering::Relaxed);
        }
    }
    Ok(())
}

/// The evented UD loop: parks in [`SocketStack::wait_ready`] and serves
/// exactly the sockets whose receive CQs signalled (main and per-call
/// sockets all subscribe to the stack channel with their fd as token).
/// Per the channel's edge-triggered contract, each ready socket is drained
/// completely before the next wait.
fn ud_event_loop_evented(
    stack: &SocketStack,
    main: &DgramSocket,
    cfg: &SipServerConfig,
    shared: &Shared,
) -> IwarpResult<()> {
    let mut calls = UdCalls::new(stack);
    let mut fd_to_call: HashMap<u32, Handle> = HashMap::new();
    let main_fd = main.fd();
    let mut scratch = new_scratch(stack);
    let mut batch = Vec::with_capacity(MAIN_BATCH);
    while !shared.shutdown.load(Ordering::Relaxed) {
        // Bounded wait so shutdown is noticed even on a dead-quiet fabric.
        for fd in stack.wait_ready(Duration::from_millis(20)) {
            if fd == main_fd {
                // Setup storms land many INVITEs per readiness edge:
                // drain the main socket in `recvmmsg`-style batches
                // instead of one try_recv_from round-trip per message.
                loop {
                    batch.clear();
                    match main.recv_many(&mut batch, MAIN_BATCH, Duration::ZERO) {
                        Ok(_) => {}
                        Err(iwarp::IwarpError::PollTimeout) => break,
                        Err(e) => return Err(e),
                    }
                    for (data, src) in &batch {
                        if let Ok(msg) = SipView::parse(data) {
                            if let Some((h, call_fd)) = handle_ud_message(
                                stack, cfg, shared, &mut calls, main, &msg, *src,
                                &mut scratch,
                            )? {
                                fd_to_call.insert(call_fd, h);
                            }
                        } else {
                            shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            } else if let Some(&h) = fd_to_call.get(&fd) {
                // Generation-checked lookup: a stale fd token that raced
                // a teardown (and possibly an fd reuse) simply misses.
                let Some(call) = calls.slab.get_mut(h) else {
                    fd_to_call.remove(&fd);
                    continue;
                };
                if drain_call_socket(call, shared, &mut scratch)? {
                    calls.remove(h);
                    fd_to_call.remove(&fd);
                    shared.stats.active_calls.fetch_sub(1, Ordering::Relaxed);
                }
            }
            // Unknown fd: completion raced a call teardown; ignore.
        }
    }
    Ok(())
}

/// A response scratch whose retained capacity is memacct-visible when the
/// stack's device carries a registry.
fn new_scratch(stack: &SocketStack) -> SipScratch {
    stack
        .device()
        .mem()
        .map_or_else(SipScratch::new, SipScratch::with_mem)
}

/// Serves everything pending on one call socket. Returns `true` when the
/// dialog ended (BYE answered) and the call should be dropped.
///
/// This is the steady-state hot path: zero-copy receive ([`Bytes`] out of
/// the socket's ready queue), borrowed parse ([`SipView`]), response
/// encoded into the warm scratch — no per-message heap traffic in the
/// SIP layer.
fn drain_call_socket(
    call: &mut UdCall,
    shared: &Shared,
    scratch: &mut SipScratch,
) -> IwarpResult<bool> {
    let mut done = false;
    while let Some((src, data)) = call.sock.try_recv_bytes()? {
        let Ok(msg) = SipView::parse(&data) else {
            shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        match msg.method() {
            Some(SipMethod::Ack) => {
                shared.stats.acks.fetch_add(1, Ordering::Relaxed);
            }
            Some(SipMethod::Bye) => {
                let wire = scratch.response_to(&msg, 200, "OK", &[]);
                call.sock.send_to(wire, src)?;
                shared.stats.byes.fetch_add(1, Ordering::Relaxed);
                done = true;
            }
            _ => {}
        }
    }
    Ok(done)
}

/// Handles one message on the main socket. Returns the `(handle, fd)` of
/// a newly established call so the evented loop can index it.
#[allow(clippy::too_many_arguments)]
fn handle_ud_message(
    stack: &SocketStack,
    cfg: &SipServerConfig,
    shared: &Shared,
    calls: &mut UdCalls,
    main: &DgramSocket,
    msg: &SipView<'_>,
    src: Addr,
    scratch: &mut SipScratch,
) -> IwarpResult<Option<(Handle, u32)>> {
    match msg.method() {
        Some(SipMethod::Invite) => {
            let Some(call_id) = msg.call_id() else {
                shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            };
            if calls.index.contains_key(call_id) {
                return Ok(None); // retransmitted INVITE; 200 OK was sent
            }
            // Paper setup: one server socket per client/call. The 200 OK
            // is sent *from* the call socket so in-dialog requests land
            // there. (In Event mode the new socket subscribes itself to
            // the stack channel at open.) Per-call sockets only ever see
            // small in-dialog requests, so they take the compact receive
            // profile — the dominant term of Fig. 11's per-call bytes.
            let call_sock = stack.dgram_with(DgramProfile::compact())?;
            let fd = call_sock.fd();
            let contact = format!("<sip:{}>", call_sock.local_addr());
            let wire = scratch.response_to(msg, 200, "OK", &[("Contact", &contact)]);
            call_sock.send_to(wire, src)?;
            let state = stack
                .device()
                .mem()
                .map(|r| r.track("sip_call", cfg.call_state_bytes));
            let h = calls.insert(UdCall {
                call_id: call_id.to_owned(),
                sock: call_sock,
                _state: state,
            });
            shared.stats.invites.fetch_add(1, Ordering::Relaxed);
            shared.stats.active_calls.fetch_add(1, Ordering::Relaxed);
            return Ok(Some((h, fd)));
        }
        Some(SipMethod::Options) => {
            let wire = scratch.response_to(msg, 200, "OK", &[]);
            main.send_to(wire, src)?;
        }
        _ => {}
    }
    Ok(None)
}

/// One RC call: the accepted connection, a reassembly buffer for the byte
/// stream, and tracked application state.
struct RcCall {
    sock: StreamSocket,
    rxbuf: Vec<u8>,
    done: bool,
    _state: Option<MemScope>,
}

fn rc_event_loop(
    stack: &SocketStack,
    listener: &iwarp_socket::StreamListener,
    cfg: &SipServerConfig,
    shared: &Shared,
) -> IwarpResult<()> {
    let mut calls: Vec<RcCall> = Vec::new();
    let mut scratch = new_scratch(stack);
    let mut buf = vec![0u8; 8 * 1024];
    while !shared.shutdown.load(Ordering::Relaxed) {
        // Accept new connections (short timeout keeps the loop live).
        if let Ok(sock) = listener.accept(Duration::from_millis(1)) {
            let state = stack
                .device()
                .mem()
                .map(|r| r.track("sip_call", cfg.call_state_bytes));
            calls.push(RcCall {
                sock,
                rxbuf: Vec::new(),
                done: false,
                _state: state,
            });
            shared.stats.active_calls.fetch_add(1, Ordering::Relaxed);
        }
        // Serve established connections.
        for call in &mut calls {
            if call.done {
                continue;
            }
            loop {
                match call.sock.try_recv(&mut buf) {
                    Ok(Some(n)) => call.rxbuf.extend_from_slice(&buf[..n]),
                    Ok(None) => break,
                    Err(_) => {
                        call.done = true; // peer went away
                        break;
                    }
                }
            }
            // Frame and handle complete messages — borrowed parse over
            // the reassembly buffer, responses out of the warm scratch.
            loop {
                let used = match SipView::parse_prefix(&call.rxbuf) {
                    Ok((msg, used)) => {
                        match msg.method() {
                            Some(SipMethod::Invite) => {
                                let wire = scratch.response_to(&msg, 200, "OK", &[]);
                                let _ = call.sock.send(wire);
                                shared.stats.invites.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(SipMethod::Ack) => {
                                shared.stats.acks.fetch_add(1, Ordering::Relaxed);
                            }
                            Some(SipMethod::Bye) => {
                                let wire = scratch.response_to(&msg, 200, "OK", &[]);
                                let _ = call.sock.send(wire);
                                shared.stats.byes.fetch_add(1, Ordering::Relaxed);
                                call.done = true;
                            }
                            _ => {}
                        }
                        used
                    }
                    Err(e) if SipMessage::is_incomplete(&e) => break,
                    Err(_) => {
                        shared.stats.parse_errors.fetch_add(1, Ordering::Relaxed);
                        call.rxbuf.clear();
                        break;
                    }
                };
                call.rxbuf.drain(..used);
            }
        }
        let before = calls.len();
        calls.retain(|c| !c.done);
        let removed = before - calls.len();
        if removed > 0 {
            shared
                .stats
                .active_calls
                .fetch_sub(removed as u64, Ordering::Relaxed);
        }
    }
    Ok(())
}
