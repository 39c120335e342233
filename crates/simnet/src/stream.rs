//! `StreamConduit` — a from-scratch TCP-equivalent reliable byte stream.
//!
//! Connection-based iWARP runs over TCP; this module rebuilds the pieces of
//! TCP the paper's analysis depends on, so that RC-mode measurements carry
//! *real* connection overheads rather than modelled ones:
//!
//! * three-way handshake (SYN / SYN-ACK / ACK) through a [`StreamListener`];
//! * byte-granular sequence numbers, cumulative ACKs, out-of-order segment
//!   buffering and exact in-order delivery;
//! * retransmission timeout with exponential backoff, triple-duplicate-ACK
//!   fast retransmit, and zero-window probing;
//! * sliding-window flow control with advertised receive windows;
//! * socket-buffer semantics: `write` copies into a bounded send buffer
//!   (retained for retransmission), `read` copies out of a bounded receive
//!   buffer — the same two copies a kernel TCP socket imposes, which is one
//!   of the overhead sources datagram-iWARP eliminates. Both stay, and they
//!   are the only ones: the send buffer is a queue of shared chunks (one
//!   per write scope), a segment's payload is a gather list of windows
//!   into it, headed by a slice of one header arena per fabric burst, and
//!   the receive buffer queues the arriving segment payloads as they are;
//! * per-connection state registered with a [`MemRegistry`] so the memory
//!   scalability experiment (paper Fig. 11) measures real footprints.
//!
//! The implementation is intentionally *stream-oriented*: it has no notion
//! of message boundaries, which is exactly why the iWARP MPA layer above it
//! must insert markers (paper §II) — an overhead the datagram path avoids.
//!
//! **Progress is the owner's.** The conduit has no thread of its own. A
//! call that has to wait on it — [`StreamConduit::connect`],
//! [`StreamConduit::read`], a [`StreamConduit::write_all_vectored`]
//! waiting for send-buffer space or for the handshake to complete,
//! [`StreamConduit::flush`] — runs the protocol: it waits on the endpoint
//! for at most the smaller of its own timeout and the next timer
//! deadline, handles every queued segment under one lock scope, fires
//! due timers and pumps output. So a conduit makes progress only while
//! its owner is inside a call on it, as [`crate::rdgram::RdConduit`]
//! does. A threaded RC QP's receive loop is the driver; a poll-mode QP
//! drives it from `progress`. A writer that stops calling must
//! [`flush`](StreamConduit::flush) to get its tail retransmitted, and
//! its peer must still be inside a call to acknowledge it. Dropping a
//! conduit closes it and lingers for the acknowledgements (see its
//! `Drop`).
//!
//! Wakes: one caller drives at a time (leader/follower). The first
//! waiter sets `St::driving`; the others sleep on the one condvar. A lock
//! scope that queued bytes, took an ACK, changed the connection state or
//! set an error raises `St::wake`, and its release step notifies after
//! unlocking. A driver that returns raises it too, in the scope of its
//! last poll, so that a sleeper takes over.

use std::collections::{BTreeMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iwarp_cc::{CcAlgo, RecoveryConfig, RecoveryEngine};
use iwarp_common::sg::SgBytes;
use iwarp_telemetry::{Counter, EndpointId, EventKind, Telemetry};
use parking_lot::{Condvar, Mutex, MutexGuard};

use iwarp_common::memacct::{MemRegistry, MemScope};

use crate::error::{NetError, NetResult};
use crate::fabric::{Endpoint, Fabric};
use crate::wire::{Addr, NodeId, WirePacket};

/// Wire-packet protocol discriminator for stream segments.
pub const PROTO_STREAM: u8 = 0x02;

/// Segment header: proto(1) + flags(1) + seq(8) + ack(8) + wnd(4) + len(2).
pub const SEG_HEADER: usize = 24;

const FLAG_SYN: u8 = 0x01;
const FLAG_ACK: u8 = 0x02;
const FLAG_FIN: u8 = 0x04;
const FLAG_RST: u8 = 0x08;
/// The payload of this (pure-ACK) segment is SACK metadata — pairs of
/// big-endian u64 `(lo, hi)` byte ranges the receiver holds out of order
/// — not stream data. Only emitted when an adaptive congestion-control
/// algorithm is configured, so the default wire traffic is unchanged.
const FLAG_SACK: u8 = 0x10;

/// Hard cap on handshake retransmissions before the connection errors
/// (established-phase retransmissions are capped by
/// [`StreamConfig::max_retries`] via the recovery engine).
const MAX_HS_RETRIES: u32 = 30;

/// Most `(lo, hi)` ranges one SACK segment carries.
const MAX_SACK_RANGES: usize = 3;

/// Longest a dropped conduit lingers for its data to be acknowledged.
const LINGER: Duration = Duration::from_millis(100);

/// A dropped conduit's FIN probe timeout. Not RTT-based: a peer that
/// is not inside a call acknowledges late, so RTT samples include its
/// idle time.
const FIN_PROBE: Duration = Duration::from_millis(1);

/// Longest one drive step waits on the endpoint: bounds how late a timer
/// armed by another caller's write is noticed.
const IDLE_STEP: Duration = Duration::from_millis(10);

/// Lower bound on the adaptive retransmission timeout. Only applies under
/// an adaptive `cc` algorithm; `CcAlgo::Fixed` floors the timer at
/// `rto_initial`, matching the pre-engine behaviour.
const MIN_RTO: Duration = Duration::from_millis(1);

/// Configuration of a stream endpoint.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Send (retransmission) buffer capacity, bytes.
    pub snd_buf: usize,
    /// Receive (reassembly + delivery) buffer capacity, bytes.
    pub rcv_buf: usize,
    /// Initial retransmission timeout (before any RTT samples arrive).
    pub rto_initial: Duration,
    /// Upper bound on the backed-off retransmission timeout.
    pub rto_max: Duration,
    /// Established-phase retransmissions of one segment before the
    /// connection errors out.
    pub max_retries: u32,
    /// Congestion-control algorithm for the data phase. `Fixed` (this
    /// config's own default, independent of `RdConfig::cc`) preserves
    /// the legacy behaviour: flow control by the peer's advertised window
    /// only, constant-base RTO, no SACK blocks on the wire.
    pub cc: CcAlgo,
    /// How long `connect` waits for the handshake to complete.
    pub connect_timeout: Duration,
    /// Memory registry for per-connection state accounting.
    pub mem: Option<MemRegistry>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            snd_buf: 32 * 1024,
            rcv_buf: 32 * 1024,
            rto_initial: Duration::from_millis(20),
            rto_max: Duration::from_secs(1),
            max_retries: 30,
            cc: CcAlgo::Fixed,
            connect_timeout: Duration::from_secs(5),
            mem: None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Conn {
    SynSent,
    SynReceived,
    Established,
    Closed,
}

/// A segment's header fields (`len` is its payload's length).
#[derive(Clone, Copy, Debug)]
struct SegHead {
    flags: u8,
    seq: u64,
    ack: u64,
    wnd: u32,
}

#[derive(Debug)]
struct Segment {
    head: SegHead,
    payload: SgBytes,
}

/// Appends the wire header of a segment carrying `len` payload bytes.
fn encode_header(out: &mut BytesMut, h: &SegHead, len: usize) {
    out.put_u8(PROTO_STREAM);
    out.put_u8(h.flags);
    out.put_u64(h.seq);
    out.put_u64(h.ack);
    out.put_u32(h.wnd);
    out.put_u16(len as u16);
}

/// Decodes a received packet without flattening it: the payload stays a
/// gather list over the arriving buffers. The stream's own packets carry
/// the segment header as the packet header; any other split (a frame the
/// fabric's fault injection rebuilt contiguously) is read across parts.
fn decode_segment(pkt: WirePacket) -> Option<Segment> {
    if pkt.wire_len() < SEG_HEADER {
        return None;
    }
    let mut raw = [0u8; SEG_HEADER];
    let payload = if pkt.header.len() == SEG_HEADER {
        raw.copy_from_slice(&pkt.header);
        pkt.payload
    } else {
        let frame = pkt.frame();
        frame.read_at(0, &mut raw);
        frame.slice(SEG_HEADER, frame.len())
    };
    let len = usize::from(u16::from_be_bytes([raw[22], raw[23]]));
    if raw[0] != PROTO_STREAM || payload.len() != len {
        return None;
    }
    Some(Segment {
        head: SegHead {
            flags: raw[1],
            seq: u64::from_be_bytes(raw[2..10].try_into().ok()?),
            ack: u64::from_be_bytes(raw[10..18].try_into().ok()?),
            wnd: u32::from_be_bytes(raw[18..22].try_into().ok()?),
        },
        payload,
    })
}

/// A socket buffer: a queue of shared byte chunks plus their total
/// length. Pushing and dropping whole or partial chunks moves no bytes.
#[derive(Default)]
struct ByteQueue {
    chunks: VecDeque<Bytes>,
    len: usize,
}

impl ByteQueue {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a chunk (empty ones are not stored).
    fn push(&mut self, chunk: Bytes) {
        if !chunk.is_empty() {
            self.len += chunk.len();
            self.chunks.push_back(chunk);
        }
    }

    /// Appends `take` bytes of `src` from `skip` on, as windows of its
    /// parts.
    fn push_sg(&mut self, src: &SgBytes, skip: usize, take: usize) {
        for w in windows(src.parts(), skip, take) {
            self.push(w);
        }
    }

    /// Drops the first `n` bytes (at most all of them).
    fn drop_front(&mut self, mut n: usize) {
        while n > 0 {
            let Some(front) = self.chunks.front_mut() else {
                break;
            };
            let k = n.min(front.len());
            self.len -= k;
            n -= k;
            if k == front.len() {
                self.chunks.pop_front();
            } else {
                front.advance(k);
            }
        }
    }

    /// `len` bytes from `offset` on, as a gather list of windows into the
    /// queued chunks (no copy).
    fn window(&self, offset: usize, len: usize) -> SgBytes {
        let mut out = SgBytes::new();
        for w in windows(&self.chunks, offset, len) {
            out.push(w);
        }
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Copies bytes from the front into `dst` and drops them; returns how
    /// many (`min(dst.len(), self.len())`).
    fn pop_into(&mut self, dst: &mut [u8]) -> usize {
        let n = dst.len().min(self.len);
        let mut done = 0;
        for c in &self.chunks {
            if done == n {
                break;
            }
            let k = (n - done).min(c.len());
            dst[done..done + k].copy_from_slice(&c[..k]);
            done += k;
        }
        self.drop_front(n);
        n
    }
}

/// The windows of `chunks` that cover `take` bytes from `skip` on.
fn windows<'a, I>(chunks: I, mut skip: usize, mut take: usize) -> impl Iterator<Item = Bytes> + 'a
where
    I: IntoIterator<Item = &'a Bytes>,
    I::IntoIter: 'a,
{
    chunks
        .into_iter()
        .map_while(move |c| {
            if take == 0 {
                return None; // done: stop walking the chunks
            }
            if skip >= c.len() {
                skip -= c.len();
                return Some(None); // before the range
            }
            let n = (c.len() - skip).min(take);
            let w = c.slice(skip..skip + n);
            (skip, take) = (0, take - n);
            Some(Some(w))
        })
        .flatten()
}

struct St {
    conn: Conn,
    peer: Addr,
    /// Oldest unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to send.
    snd_nxt: u64,
    /// Peer's advertised receive window.
    snd_wnd: u32,
    /// Bytes queued for (re)transmission; front corresponds to `snd_una`
    /// (or `snd_una - 1` before the SYN is acknowledged — the SYN occupies
    /// sequence number 0 and carries no buffer bytes).
    send_q: ByteQueue,
    /// Next expected receive sequence number.
    rcv_nxt: u64,
    /// In-order bytes ready for `read`: segment payloads as they arrived.
    recv_q: ByteQueue,
    /// Out-of-order segments keyed by their start sequence number.
    ooo: BTreeMap<u64, SgBytes>,
    ooo_bytes: usize,
    /// Set once the application requested close; FIN goes out after data.
    fin_requested: bool,
    /// Sequence number consumed by our FIN once sent.
    fin_seq: Option<u64>,
    /// Sequence number of the peer's FIN (its position in the stream).
    peer_fin: Option<u64>,
    peer_closed: bool,
    /// Handshake (SYN / SYN-ACK) retransmission timer. Once the connection
    /// is established, all loss recovery moves to `engine`.
    hs_deadline: Option<Instant>,
    hs_rto: Duration,
    hs_retries: u32,
    /// Unified loss-recovery engine covering the data phase: scoreboard,
    /// RTT-adaptive RTO, dup-ACK/SACK-driven fast retransmit, and the
    /// congestion window when an adaptive `CcAlgo` is configured. Its
    /// sequence space mirrors `[snd_una, snd_nxt)` from sequence 1 on
    /// (the SYN at sequence 0 is handshake state, not engine state).
    engine: RecoveryEngine,
    last_wnd_sent: u32,
    err: Option<NetError>,
    /// Segments made in the current lock scope, in order, all for `peer`.
    /// The scope's release step encodes their headers into one arena and
    /// sends them as one fabric burst.
    outbox: Vec<Segment>,
    /// A caller holds the drive step (see the module doc, "Wakes").
    driving: bool,
    /// The current lock scope changed something a sleeper may wait for;
    /// its release step notifies `Inner::cv` after unlocking.
    wake: bool,
    /// Callers asleep on `Inner::cv`; nobody is notified when zero.
    sleepers: usize,
}

impl St {
    fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Transmitted-but-unacked *data* bytes (excludes the SYN at seq 0 and
    /// the FIN, which occupy sequence numbers but no queue bytes).
    fn data_in_flight(&self) -> usize {
        let lo = self.snd_una.max(1);
        let hi = match self.fin_seq {
            Some(f) => self.snd_nxt.min(f),
            None => self.snd_nxt,
        };
        hi.saturating_sub(lo) as usize
    }

    /// Bytes in `send_q` not yet transmitted.
    fn unsent(&self) -> usize {
        self.send_q.len().saturating_sub(self.data_in_flight())
    }

    fn recv_window(&self, rcv_buf: usize) -> u32 {
        rcv_buf.saturating_sub(self.recv_q.len() + self.ooo_bytes) as u32
    }
}

/// Builds the recovery-engine configuration for one stream connection.
/// Engine units are bytes; the quantum is the connection MSS.
fn recovery_config(cfg: &StreamConfig, mss: usize) -> RecoveryConfig {
    let fixed = cfg.cc == CcAlgo::Fixed;
    RecoveryConfig {
        algo: cfg.cc,
        quantum: mss as u64,
        // Fixed mode has no congestion window: flow control comes from the
        // peer's advertised window alone, as it did pre-engine.
        init_cwnd: if fixed { u64::MAX / 4 } else { 4 * mss as u64 },
        fixed_window: u64::MAX / 4,
        bdp_cap: u64::MAX / 4,
        initial_rto: cfg.rto_initial,
        // Fixed mode floors the adaptive RTO at the legacy initial value so
        // the timer can never fire earlier than it used to.
        min_rto: if fixed { cfg.rto_initial } else { MIN_RTO },
        max_rto: cfg.rto_max,
        backoff: true,
        max_retries: cfg.max_retries,
        rtx_queue_cap: 1024,
    }
}

/// Coalesces the receiver's out-of-order map into at most
/// [`MAX_SACK_RANGES`] half-open `(lo, hi)` byte ranges, big-endian.
fn encode_sack(ooo: &BTreeMap<u64, SgBytes>) -> Bytes {
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for (&seq, payload) in ooo {
        let end = seq + payload.len() as u64;
        match ranges.last_mut() {
            Some((_, hi)) if seq <= *hi => *hi = (*hi).max(end),
            _ => {
                if ranges.len() == MAX_SACK_RANGES {
                    break;
                }
                ranges.push((seq, end));
            }
        }
    }
    let mut b = BytesMut::with_capacity(ranges.len() * 16);
    for (lo, hi) in ranges {
        b.put_u64(lo);
        b.put_u64(hi);
    }
    b.freeze()
}

/// Decodes SACK ranges from a [`FLAG_SACK`] segment payload.
fn decode_sack(payload: &[u8]) -> impl Iterator<Item = (u64, u64)> + '_ {
    payload.chunks_exact(16).map(|c| {
        (
            u64::from_be_bytes(c[..8].try_into().unwrap()),
            u64::from_be_bytes(c[8..16].try_into().unwrap()),
        )
    })
}

struct Inner {
    ep: Endpoint,
    cfg: StreamConfig,
    mss: usize,
    st: Mutex<St>,
    /// Where callers that are not driving sleep.
    cv: Condvar,
    tel: Telemetry,
    _mem: Mutex<Option<MemScope>>,
}

/// One scope of the state lock. Dropping it is the scope's release step:
/// the segments the scope encoded leave as one fabric burst while the lock
/// is still held, so wire order is lock order; then the lock is released;
/// then, if the scope raised `St::wake`, the sleepers are notified, so a
/// woken waiter never blocks on a lock its waker still holds.
struct Locked<'a> {
    inner: &'a Inner,
    /// `Some` until the release step drops it.
    guard: Option<MutexGuard<'a, St>>,
}

impl<'a> Locked<'a> {
    /// Sends the scope's outbox as one fabric burst, the lock held.
    fn send_outbox(&mut self) {
        if self.outbox.is_empty() {
            return;
        }
        let peer = self.peer;
        let mut arena = BytesMut::with_capacity(self.outbox.len() * SEG_HEADER);
        for seg in &self.outbox {
            encode_header(&mut arena, &seg.head, seg.payload.len());
        }
        let arena = arena.freeze();
        let frames = self
            .outbox
            .drain(..)
            .enumerate()
            .map(|(i, seg)| {
                (
                    arena.slice(i * SEG_HEADER..(i + 1) * SEG_HEADER),
                    seg.payload,
                )
            })
            .collect();
        // Losing a segment here is equivalent to wire loss; reliability
        // comes from retransmission, so the send result is advisory.
        let _ = self.inner.ep.send_burst(peer, frames);
    }

    /// The raw guard, for a condvar wait; the scope's segments leave
    /// first. Only a caller that is not driving sleeps, and it raises no
    /// wakes.
    fn guard(&mut self) -> &mut MutexGuard<'a, St> {
        self.send_outbox();
        let guard = self.guard.as_mut().expect("held until the release step");
        debug_assert!(!guard.wake);
        guard
    }
}

impl Deref for Locked<'_> {
    type Target = St;
    fn deref(&self) -> &St {
        self.guard.as_deref().expect("held until the release step")
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut St {
        self.guard
            .as_deref_mut()
            .expect("held until the release step")
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        self.send_outbox();
        let Some(mut st) = self.guard.take() else {
            return;
        };
        let notify = std::mem::take(&mut st.wake) && st.sleepers > 0;
        drop(st);
        if notify {
            self.inner.cv.notify_all();
        }
    }
}

impl Inner {
    /// Takes the state lock for one scope; see [`Locked`].
    fn lock(&self) -> Locked<'_> {
        let guard = self.st.lock();
        debug_assert!(
            guard.outbox.is_empty() && !guard.wake,
            "a stream lock scope skipped its release step"
        );
        Locked {
            inner: self,
            guard: Some(guard),
        }
    }

    /// Queues a segment to the peer in the scope's outbox. Called with
    /// the state lock held; the scope's release step transmits it.
    fn tx(&self, st: &mut St, flags: u8, seq: u64, payload: SgBytes) {
        let wnd = st.recv_window(self.cfg.rcv_buf);
        st.last_wnd_sent = wnd;
        self.tel.simnet().stream_tx_segments.inc();
        let pure_ack = payload.is_empty() || flags & FLAG_SACK != 0;
        if flags & (FLAG_SYN | FLAG_FIN) == 0 && pure_ack {
            self.tel.simnet().stream_acks_tx.inc();
        }
        let head = SegHead {
            flags,
            seq,
            ack: st.rcv_nxt,
            wnd,
        };
        st.outbox.push(Segment { head, payload });
    }

    fn arm_hs_rto(&self, st: &mut St) {
        if st.hs_deadline.is_none() {
            st.hs_deadline = Some(Instant::now() + st.hs_rto);
        }
    }

    /// Pushes out as much pending data as the peer's advertised window and
    /// the engine's congestion window allow. Called with the lock held.
    fn pump(&self, st: &mut St) {
        if st.conn != Conn::Established {
            return;
        }
        let t = st.engine.now();
        let wnd = u64::from(st.snd_wnd).min(st.engine.window());
        loop {
            let in_flight = st.in_flight();
            let unsent = st.unsent();
            if unsent == 0 || in_flight >= wnd || st.engine.is_dead() {
                break;
            }
            let len = unsent.min(self.mss).min((wnd - in_flight) as usize);
            if len == 0 {
                break;
            }
            let offset = (st.snd_nxt - st.snd_una) as usize;
            let payload = st.send_q.window(offset, len);
            let seq = st.snd_nxt;
            st.snd_nxt += len as u64;
            st.engine.on_send(t, len as u64);
            self.tx(st, FLAG_ACK, seq, payload);
        }
        // Persist timer: data pending against a zero window must keep a
        // timer armed or a lost window update deadlocks the connection.
        if st.unsent() > 0 && st.in_flight() == 0 && st.snd_wnd == 0 {
            st.engine.ensure_deadline(t);
        }
        // FIN goes out once all data has been transmitted at least once.
        if st.fin_requested && st.fin_seq.is_none() && st.unsent() == 0 && !st.engine.is_dead() {
            let seq = st.snd_nxt;
            st.fin_seq = Some(seq);
            st.snd_nxt += 1;
            st.engine.on_send(t, 1);
            self.tx(st, FLAG_FIN | FLAG_ACK, seq, SgBytes::new());
        }
        debug_assert_eq!(st.engine.nxt(), st.snd_nxt);
    }

    /// Handles one incoming segment. Called with the state lock held.
    fn on_segment(&self, st: &mut St, src: Addr, seg: Segment) {
        let Segment { head: seg, payload } = seg;
        // While connecting, the SYN-ACK arrives from the server's dedicated
        // per-connection endpoint, not the listener address we dialled —
        // adopt that endpoint as our peer (the TCP accept-socket analog).
        if st.conn == Conn::SynSent {
            if seg.flags & (FLAG_SYN | FLAG_ACK) == (FLAG_SYN | FLAG_ACK) {
                // Nothing is encoded before the SYN-ACK in this state, so
                // the outbox never holds segments for the old peer.
                debug_assert!(st.outbox.is_empty());
                st.peer = src;
            }
        } else if src != st.peer {
            return;
        }
        if seg.flags & FLAG_RST != 0 {
            st.err = Some(NetError::Closed);
            st.conn = Conn::Closed;
            return;
        }

        // Handshake transitions.
        match st.conn {
            Conn::SynSent => {
                if seg.flags & (FLAG_SYN | FLAG_ACK) == (FLAG_SYN | FLAG_ACK) && seg.ack == 1 {
                    st.conn = Conn::Established;
                    st.snd_una = 1;
                    st.rcv_nxt = seg.seq + 1;
                    st.snd_wnd = seg.wnd;
                    st.hs_deadline = None;
                    st.hs_retries = 0;
                    st.wake = true;
                    self.tx(st, FLAG_ACK, st.snd_nxt, SgBytes::new());
                }
                return;
            }
            Conn::SynReceived => {
                if seg.flags & FLAG_SYN != 0 {
                    // Duplicate SYN (our SYN-ACK was lost): re-answer.
                    self.tx(st, FLAG_SYN | FLAG_ACK, 0, SgBytes::new());
                    return;
                }
                if seg.flags & FLAG_ACK != 0 && seg.ack >= 1 {
                    st.conn = Conn::Established;
                    st.hs_deadline = None;
                    st.hs_retries = 0;
                    st.wake = true;
                    // Fall through: the segment may carry data too.
                } else {
                    return;
                }
            }
            Conn::Established => {
                if seg.flags & FLAG_SYN != 0 {
                    // Duplicate SYN-ACK: our handshake ACK was lost.
                    // Re-acknowledge so the peer leaves SynReceived.
                    let seq = st.snd_nxt;
                    self.tx(st, FLAG_ACK, seq, SgBytes::new());
                    return;
                }
            }
            Conn::Closed => return,
        }

        // ACK processing.
        if seg.flags & FLAG_ACK != 0 {
            st.snd_wnd = seg.wnd;
            let t = st.engine.now();
            if seg.flags & FLAG_SACK != 0 {
                // The payload is SACK metadata: feed the scoreboard, then
                // let the engine infer losses from the sacked horizon.
                for (lo, hi) in decode_sack(&payload.to_bytes()) {
                    st.engine.on_sack_range(t, lo, hi);
                }
                st.engine.detect_losses(t);
            }
            if seg.ack > st.snd_una && seg.ack <= st.snd_nxt {
                // Bytes covered by the cumulative ACK leave the send queue.
                // The SYN (seq 0) and our FIN occupy sequence numbers but no
                // queue bytes, so clamp the acked data range to [1, fin_seq).
                let data_acked_to = match st.fin_seq {
                    Some(f) => seg.ack.min(f),
                    None => seg.ack,
                };
                let data_start = st.snd_una.max(1);
                let drop_bytes = data_acked_to.saturating_sub(data_start) as usize;
                st.send_q.drop_front(drop_bytes);
                st.snd_una = seg.ack;
                st.engine.on_cum_ack(t, seg.ack);
                st.wake = true;
            } else if seg.ack == st.snd_una
                && st.in_flight() > 0
                && (payload.is_empty() || seg.flags & FLAG_SACK != 0)
            {
                // A pure duplicate ACK (possibly carrying SACK blocks)
                // hints at head loss; the engine fast-retransmits once
                // enough hints accumulate.
                st.engine.on_dup_ack(t);
            }
            self.drain_rtx(st, &self.tel.simnet().stream_fast_retransmits);
        }

        // Payload placement (SACK payloads are metadata, not stream data).
        let mut should_ack = false;
        let payload_len = if seg.flags & FLAG_SACK == 0 {
            payload.len() as u64
        } else {
            0
        };
        if !payload.is_empty() && seg.flags & FLAG_SACK == 0 {
            should_ack = true;
            let mut seq = seg.seq;
            let mut payload = payload;
            let end = seq + payload.len() as u64;
            if end > st.rcv_nxt {
                if seq < st.rcv_nxt {
                    // Retransmission overlapping delivered data: trim.
                    payload = payload.slice((st.rcv_nxt - seq) as usize, payload.len());
                    seq = st.rcv_nxt;
                }
                if seq == st.rcv_nxt {
                    let space = self
                        .cfg
                        .rcv_buf
                        .saturating_sub(st.recv_q.len() + st.ooo_bytes);
                    let take = payload.len().min(space);
                    st.recv_q.push_sg(&payload, 0, take);
                    st.rcv_nxt += take as u64;
                    if take == payload.len() {
                        self.drain_ooo(st);
                    }
                    st.wake = true;
                } else if st.ooo_bytes + payload.len() <= self.cfg.rcv_buf {
                    // Future segment: stash for later (dedup by start seq).
                    if !st.ooo.contains_key(&seq) {
                        st.ooo_bytes += payload.len();
                        st.ooo.insert(seq, payload);
                    }
                }
            }
        }

        // Peer FIN.
        if seg.flags & FLAG_FIN != 0 {
            let fin_seq = seg.seq + payload_len;
            st.peer_fin = Some(fin_seq);
            should_ack = true;
        }
        if let Some(f) = st.peer_fin {
            if st.rcv_nxt == f && !st.peer_closed {
                st.rcv_nxt = f + 1;
                st.peer_closed = true;
                st.wake = true;
            }
        }

        if should_ack {
            self.send_ack(st);
        }
    }

    /// Emits a pure ACK, attaching SACK ranges for out-of-order data when
    /// an adaptive algorithm is configured (`Fixed` keeps the legacy
    /// empty-ACK wire format).
    fn send_ack(&self, st: &mut St) {
        let seq = st.snd_nxt;
        if self.cfg.cc != CcAlgo::Fixed && !st.ooo.is_empty() {
            let sack = encode_sack(&st.ooo);
            self.tx(st, FLAG_ACK | FLAG_SACK, seq, SgBytes::from(sack));
        } else {
            self.tx(st, FLAG_ACK, seq, SgBytes::new());
        }
    }

    /// Moves contiguous out-of-order segments into the in-order queue.
    fn drain_ooo(&self, st: &mut St) {
        while let Some(entry) = st.ooo.first_entry() {
            let seq = *entry.key();
            if seq > st.rcv_nxt {
                break;
            }
            let payload = entry.remove();
            st.ooo_bytes -= payload.len();
            let end = seq + payload.len() as u64;
            if end <= st.rcv_nxt {
                continue; // fully duplicate
            }
            let skip = (st.rcv_nxt - seq) as usize;
            let space = self
                .cfg
                .rcv_buf
                .saturating_sub(st.recv_q.len() + st.ooo_bytes);
            let take = (payload.len() - skip).min(space);
            st.recv_q.push_sg(&payload, skip, take);
            st.rcv_nxt += take as u64;
            if take < payload.len() - skip {
                break; // buffer full; rest will be retransmitted
            }
        }
    }

    /// Retransmits one engine-identified range `[seq, seq + len)`.
    fn retransmit_range(&self, st: &mut St, seq: u64, len: usize) {
        self.tel.simnet().stream_retransmits.inc();
        let local = self.ep.local_addr();
        self.tel.trace(
            EndpointId::new(local.node.0, local.port),
            EventKind::Retransmit,
            st.in_flight(),
            seq,
        );
        if st.fin_seq == Some(seq) {
            self.tx(st, FLAG_FIN | FLAG_ACK, seq, SgBytes::new());
            return;
        }
        let offset = (seq - st.snd_una) as usize;
        let avail = st.send_q.len().saturating_sub(offset).min(len);
        if avail > 0 {
            let payload = st.send_q.window(offset, avail);
            self.tx(st, FLAG_ACK, seq, payload);
        }
    }

    /// Sends everything the engine has queued for retransmission, and
    /// surfaces connection death (retry budget exhausted) as a reset.
    /// `kind` attributes the retransmissions (fast vs timeout-driven).
    fn drain_rtx(&self, st: &mut St, kind: &Counter) {
        let t = st.engine.now();
        while let Some((seq, len)) = st.engine.pop_rtx(t) {
            kind.inc();
            self.retransmit_range(st, seq, len as usize);
        }
        if st.engine.is_dead() && st.conn != Conn::Closed {
            self.fail(st, NetError::Reset);
        }
    }

    fn fail(&self, st: &mut St, err: NetError) {
        if st.err.is_none() {
            st.err = Some(err);
        }
        st.conn = Conn::Closed;
        st.wake = true;
    }

    /// Handshake retransmission timer (SYN / SYN-ACK only).
    fn on_hs_rto(&self, st: &mut St) {
        st.hs_retries += 1;
        if st.hs_retries > MAX_HS_RETRIES {
            self.fail(st, NetError::Timeout);
            return;
        }
        self.tel.simnet().stream_rto_retransmits.inc();
        self.tel.simnet().stream_retransmits.inc();
        match st.conn {
            Conn::SynSent => self.tx(st, FLAG_SYN, 0, SgBytes::new()),
            Conn::SynReceived => self.tx(st, FLAG_SYN | FLAG_ACK, 0, SgBytes::new()),
            Conn::Established | Conn::Closed => {}
        }
        st.hs_rto = (st.hs_rto * 2).min(self.cfg.rto_max);
        st.hs_deadline = Some(Instant::now() + st.hs_rto);
    }

    /// Established-phase timer: lets the engine sweep, then acts on what it
    /// decided (head retransmission, zero-window probe, or death).
    fn on_engine_timer(&self, st: &mut St) {
        let t = st.engine.now();
        let ev = st.engine.sweep(t);
        if ev.dead {
            self.fail(st, NetError::Reset);
            return;
        }
        if ev.probe {
            // Nothing outstanding: this was the persist timer. Probe only
            // if data is still pinned behind a zero window.
            if st.unsent() > 0 && st.snd_wnd == 0 {
                self.tel.simnet().stream_zero_window_probes.inc();
                let payload = st.send_q.window(st.data_in_flight(), 1);
                let seq = st.snd_nxt;
                st.snd_nxt += 1;
                st.engine.on_send(t, 1);
                self.tx(st, FLAG_ACK, seq, payload);
            }
            return;
        }
        if ev.rto_fired {
            self.drain_rtx(st, &self.tel.simnet().stream_rto_retransmits);
        }
    }
}

impl Inner {
    /// Decodes one wire packet and handles it if it is a segment.
    fn on_packet(&self, st: &mut St, pkt: WirePacket) {
        let src = pkt.src;
        if let Some(seg) = decode_segment(pkt) {
            self.on_segment(st, src, seg);
        }
    }

    /// Runs `poll` in one lock scope after another until it yields or
    /// `deadline` (`None`: never) passes. Between polls the caller drives
    /// the conduit if no other caller does, and sleeps on `cv` otherwise.
    /// The first iteration always polls, and a caller that took the drive
    /// step polls after at least one step, so a zero budget still drains
    /// once.
    fn wait_until<T>(
        &self,
        deadline: Option<Instant>,
        mut poll: impl FnMut(&mut St) -> Option<NetResult<T>>,
    ) -> NetResult<T> {
        let mut st = self.lock();
        let mut driver = false;
        let out = loop {
            if let Some(out) = poll(&mut st) {
                break out;
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if driver || !st.driving {
                if driver && left == Some(Duration::ZERO) {
                    break Err(NetError::Timeout);
                }
                driver = true;
                st.driving = true;
                st = self.step(st, left);
                continue;
            }
            if left == Some(Duration::ZERO) {
                break Err(NetError::Timeout);
            }
            st.sleepers += 1;
            match left {
                None => self.cv.wait(st.guard()),
                Some(left) => {
                    self.cv.wait_for(st.guard(), left);
                }
            }
            st.sleepers -= 1;
        };
        // A returning driver hands the drive step on: this scope's release
        // step wakes the sleepers so that one of them takes over.
        if driver {
            st.driving = false;
            st.wake = true;
        }
        out
    }

    /// One drive step, by the caller holding `St::driving`: releases the
    /// scope, waits on the endpoint for at most `left`, the next timer
    /// deadline and [`IDLE_STEP`], then, in one new scope, handles every
    /// queued packet, fires due timers and pumps output.
    fn step<'a>(&'a self, st: Locked<'a>, left: Option<Duration>) -> Locked<'a> {
        let mut wait = left.map_or(IDLE_STEP, |left| left.min(IDLE_STEP));
        if let Some(d) = st.hs_deadline {
            wait = wait.min(d.saturating_duration_since(Instant::now()));
        }
        if st.conn == Conn::Established {
            if let Some(d) = st.engine.rto_deadline() {
                wait = wait.min(d.saturating_sub(st.engine.now()));
            }
        }
        drop(st);
        let pkt = self.ep.recv(Some(wait));
        let mut st = self.lock();
        match pkt {
            Ok(p) => {
                self.on_packet(&mut st, p);
                // Drain everything already queued before checking timers.
                while let Ok(p) = self.ep.try_recv() {
                    self.on_packet(&mut st, p);
                }
            }
            Err(NetError::Timeout) => {}
            Err(_) => {
                st.err = Some(NetError::Closed);
                st.conn = Conn::Closed;
            }
        }
        match st.conn {
            Conn::SynSent | Conn::SynReceived => {
                if let Some(d) = st.hs_deadline {
                    if Instant::now() >= d {
                        self.on_hs_rto(&mut st);
                    }
                }
            }
            Conn::Established => {
                if let Some(d) = st.engine.rto_deadline() {
                    if st.engine.now() >= d {
                        self.on_engine_timer(&mut st);
                    }
                }
            }
            Conn::Closed => {}
        }
        self.pump(&mut st);
        st.wake |= st.conn == Conn::Closed;
        st
    }
}

/// A reliable, connection-oriented byte stream over the fabric — the TCP
/// stand-in underneath RC-mode iWARP.
pub struct StreamConduit {
    /// Boxed: an RC QP holds its conduit inline and accounts its own
    /// `size_of`, which the conduit's state must not inflate.
    inner: Box<Inner>,
}

impl StreamConduit {
    /// Actively opens a connection from `local_node` to `server`, driving
    /// the handshake until it completes or `connect_timeout` passes.
    pub fn connect(
        fabric: &Fabric,
        local_node: NodeId,
        server: Addr,
        cfg: StreamConfig,
    ) -> NetResult<Self> {
        let ep = fabric.bind_ephemeral(local_node)?;
        let conduit = Self::build(ep, server, Conn::SynSent, cfg);
        let inner = &conduit.inner;
        {
            let mut st = inner.lock();
            inner.tx(&mut st, FLAG_SYN, 0, SgBytes::new());
            inner.arm_hs_rto(&mut st);
        }
        let deadline = Instant::now() + inner.cfg.connect_timeout;
        inner.wait_until(Some(deadline), |st| match st.conn {
            Conn::Established => Some(Ok(())),
            Conn::Closed => Some(Err(st.err.clone().unwrap_or(NetError::Closed))),
            Conn::SynSent | Conn::SynReceived => None,
        })?;
        Ok(conduit)
    }

    fn build(ep: Endpoint, peer: Addr, conn: Conn, cfg: StreamConfig) -> Self {
        let mss = ep.mtu() - SEG_HEADER;
        let mem = cfg.mem.as_ref().map(|reg| {
            reg.track(
                "stream_conduit",
                (cfg.snd_buf + cfg.rcv_buf + std::mem::size_of::<St>()) as u64,
            )
        });
        let (snd_una, snd_nxt, rcv_nxt) = match conn {
            // Client: SYN occupies seq 0, data starts at 1.
            Conn::SynSent => (0, 1, 0),
            // Server: our SYN-ACK occupies seq 0; the client's SYN (seq 0)
            // is already consumed, so we expect its data from seq 1.
            Conn::SynReceived => (0, 1, 1),
            _ => unreachable!("streams start in a handshake state"),
        };
        let engine = RecoveryEngine::new_at(recovery_config(&cfg, mss), 1)
            .with_telemetry(ep.fabric().telemetry());
        let tel = ep.fabric().telemetry().clone();
        let inner = Inner {
            ep,
            mss,
            tel,
            st: Mutex::new(St {
                conn,
                peer,
                snd_una,
                snd_nxt,
                snd_wnd: 0,
                send_q: ByteQueue::default(),
                rcv_nxt,
                recv_q: ByteQueue::default(),
                ooo: BTreeMap::new(),
                ooo_bytes: 0,
                fin_requested: false,
                fin_seq: None,
                peer_fin: None,
                peer_closed: false,
                hs_deadline: None,
                hs_rto: cfg.rto_initial,
                hs_retries: 0,
                engine,
                last_wnd_sent: 0,
                err: None,
                outbox: Vec::new(),
                driving: false,
                wake: false,
                sleepers: 0,
            }),
            cfg,
            cv: Condvar::new(),
            _mem: Mutex::new(mem),
        };
        Self {
            inner: Box::new(inner),
        }
    }

    /// Local address of this connection's endpoint.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.ep.local_addr()
    }

    /// The peer's address.
    #[must_use]
    pub fn peer_addr(&self) -> Addr {
        self.inner.lock().peer
    }

    /// Maximum segment size (wire MTU minus stream header).
    #[must_use]
    pub fn mss(&self) -> usize {
        self.inner.mss
    }

    /// Writes all of `buf` into the stream, blocking for send-buffer space:
    /// a [`write_all_vectored`](StreamConduit::write_all_vectored) of one
    /// buffer.
    pub fn write_all(&self, buf: &[u8]) -> NetResult<()> {
        self.write_all_vectored(&[buf])
    }

    /// Writes all of `bufs`, in order, into the stream, driving the
    /// conduit while it waits for the handshake to complete or for
    /// send-buffer space. Returns once every byte is queued (not once
    /// acknowledged: see [`flush`](StreamConduit::flush)).
    ///
    /// Each lock scope copies as much as the send buffer has room for
    /// into one chunk (the socket-write copy), then queues it one window
    /// per buffer and pumps after each. Segments therefore break where one
    /// [`write_all`](StreamConduit::write_all) per buffer would break
    /// them: a buffer that fits the window leaves as its own segments,
    /// which keeps MPA's FPDUs segment-aligned (RFC 5044's sender rule).
    pub fn write_all_vectored(&self, bufs: &[&[u8]]) -> NetResult<()> {
        let inner = &self.inner;
        // The first unwritten byte: buffer `i`, offset `off` into it.
        let (mut i, mut off) = (0usize, 0usize);
        inner.wait_until(None, |st| {
            if let Some(e) = &st.err {
                return Some(Err(e.clone()));
            }
            if st.conn == Conn::Closed || st.fin_requested {
                return Some(Err(NetError::Closed));
            }
            if st.conn != Conn::Established {
                return None;
            }
            loop {
                while i < bufs.len() && off == bufs[i].len() {
                    (i, off) = (i + 1, 0);
                }
                if i == bufs.len() {
                    return Some(Ok(()));
                }
                let space = inner.cfg.snd_buf - st.send_q.len();
                if space == 0 {
                    return None;
                }
                // The pieces this scope takes: `bufs[i][off..]`, then
                // whole buffers, the last one possibly cut at `space`.
                let pieces = || {
                    bufs[i..]
                        .iter()
                        .enumerate()
                        .scan(space, move |left, (k, b)| {
                            let from = if k == 0 { off } else { 0 };
                            let n = (b.len() - from).min(*left);
                            *left -= n;
                            (n > 0 || *left > 0).then_some((i + k, from, n))
                        })
                        .filter(|&(_, _, n)| n > 0)
                };
                let total = pieces().map(|(_, _, n)| n).sum();
                let mut chunk = Vec::with_capacity(total);
                for (b, from, n) in pieces() {
                    chunk.extend_from_slice(&bufs[b][from..from + n]);
                }
                let chunk = Bytes::from(chunk);
                let mut at = 0;
                for (b, from, n) in pieces() {
                    st.send_q.push(chunk.slice(at..at + n));
                    inner.pump(st);
                    at += n;
                    (i, off) = (b, from + n);
                }
            }
        })
    }

    /// Reads up to `buf.len()` bytes, driving the conduit for at most
    /// `timeout` (`None` = indefinitely) while none are buffered. Returns
    /// 0 at end-of-stream (peer FIN). A zero timeout runs one non-blocking
    /// drive step (unless another caller is driving) before reporting
    /// [`NetError::Timeout`].
    pub fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> NetResult<usize> {
        let inner = &self.inner;
        let deadline = timeout.map(|t| Instant::now() + t);
        inner.wait_until(deadline, |st| {
            if !st.recv_q.is_empty() {
                let n = st.recv_q.pop_into(buf);
                // Window update: if we had choked the sender, reopen.
                let wnd = st.recv_window(inner.cfg.rcv_buf);
                if st.last_wnd_sent < inner.mss as u32 && wnd >= inner.mss as u32 {
                    let seq = st.snd_nxt;
                    inner.tx(st, FLAG_ACK, seq, SgBytes::new());
                }
                return Some(Ok(n));
            }
            if st.peer_closed {
                return Some(Ok(0));
            }
            (st.conn == Conn::Closed).then(|| Err(st.err.clone().unwrap_or(NetError::Closed)))
        })
    }

    /// Reads exactly `buf.len()` bytes or fails.
    pub fn read_exact(&self, buf: &mut [u8], timeout: Option<Duration>) -> NetResult<()> {
        let mut filled = 0;
        while filled < buf.len() {
            let n = self.read(&mut buf[filled..], timeout)?;
            if n == 0 {
                return Err(NetError::Closed);
            }
            filled += n;
        }
        Ok(())
    }

    /// Drives the conduit until every written byte (and a requested FIN)
    /// is acknowledged, for at most `timeout`. Nothing is written before
    /// the handshake completes, so a conduit still in it is flushed.
    pub fn flush(&self, timeout: Duration) -> NetResult<()> {
        self.inner
            .wait_until(Some(Instant::now() + timeout), |st| match st.conn {
                Conn::Established if st.in_flight() > 0 || !st.send_q.is_empty() => None,
                Conn::Closed => Some(Err(st.err.clone().unwrap_or(NetError::Closed))),
                Conn::SynSent | Conn::SynReceived | Conn::Established => Some(Ok(())),
            })
    }

    /// One drive step, waiting at most `max_wait` for incoming wire
    /// packets, unless another caller is driving: then it waits at most
    /// `max_wait` for that caller's next wake.
    pub fn progress(&self, max_wait: Duration) {
        let mut polled = false;
        let _ = self
            .inner
            .wait_until(Some(Instant::now() + max_wait), |_| {
                std::mem::replace(&mut polled, true).then_some(Ok(()))
            });
    }

    /// Gracefully closes the send side: pending data is flushed, then FIN.
    pub fn close(&self) {
        let mut st = self.inner.lock();
        if !st.fin_requested {
            st.fin_requested = true;
            self.inner.pump(&mut st);
        }
    }

    /// Heap bytes of connection state currently tracked for this conduit.
    #[must_use]
    pub fn tracked_bytes(&self) -> u64 {
        self.inner
            ._mem
            .lock()
            .as_ref()
            .map_or(0, MemScope::bytes)
    }
}

impl Drop for StreamConduit {
    /// Closes the send side, then lingers inside calls on the conduit:
    /// for at most 100 ms until the data is acknowledged, then for the
    /// FIN. A peer that is not inside a call acknowledges nothing, so a
    /// full linger for the FIN would make dropping many connections to
    /// idle peers cost 100 ms each. The FIN gets a tail-loss probe
    /// instead (RFC 8985): 1 ms for its ACK, one resend, 1 ms more.
    fn drop(&mut self) {
        self.close();
        let inner = &self.inner;
        let data = inner.wait_until(Some(Instant::now() + LINGER), |st| {
            (st.conn != Conn::Established || st.send_q.is_empty()).then_some(Ok(()))
        });
        if data.is_ok() && self.flush(FIN_PROBE) == Err(NetError::Timeout) {
            let mut st = inner.lock();
            if let Some(fin) = st.fin_seq {
                inner.retransmit_range(&mut st, fin, 1);
            }
            drop(st);
            let _ = self.flush(FIN_PROBE);
        }
    }
}

/// Passive opener: accepts incoming stream connections at a fixed address.
pub struct StreamListener {
    ep: Endpoint,
    fabric: Fabric,
    cfg: StreamConfig,
    /// Clients whose SYN already spawned a connection (duplicate-SYN guard).
    seen: Mutex<std::collections::HashMap<Addr, Instant>>,
}

impl StreamListener {
    /// Binds a listener at `addr`.
    pub fn bind(fabric: &Fabric, addr: Addr, cfg: StreamConfig) -> NetResult<Self> {
        Ok(Self {
            ep: fabric.bind(addr)?,
            fabric: fabric.clone(),
            cfg,
            seen: Mutex::new(std::collections::HashMap::new()),
        })
    }

    /// The listening address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.ep.local_addr()
    }

    /// Waits for the next incoming connection.
    pub fn accept(&self, timeout: Option<Duration>) -> NetResult<StreamConduit> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let remaining = match deadline {
                None => None,
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(NetError::Timeout);
                    }
                    Some(d - now)
                }
            };
            let pkt = self.ep.recv(remaining)?;
            let src = pkt.src;
            let Some(seg) = decode_segment(pkt) else {
                continue;
            };
            if seg.head.flags & FLAG_SYN == 0 || seg.head.flags & FLAG_ACK != 0 {
                continue;
            }
            {
                let mut seen = self.seen.lock();
                let now = Instant::now();
                seen.retain(|_, t| now.duration_since(*t) < Duration::from_secs(10));
                if seen.contains_key(&src) {
                    continue; // duplicate SYN; the spawned conduit re-answers
                }
                seen.insert(src, now);
            }
            // Dedicated endpoint for this connection (TCP accept analog).
            let conn_ep = self.fabric.bind_ephemeral(self.ep.local_addr().node)?;
            let conduit = StreamConduit::build(conn_ep, src, Conn::SynReceived, self.cfg.clone());
            {
                let mut st = conduit.inner.lock();
                conduit
                    .inner
                    .tx(&mut st, FLAG_SYN | FLAG_ACK, 0, SgBytes::new());
                conduit.inner.arm_hs_rto(&mut st);
            }
            return Ok(conduit);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use super::*;
    use crate::chaos::{FaultPlan, PartitionWindow};
    use crate::wire::WireConfig;

    /// Keeps `conn` driven — acknowledging its peer's retransmissions —
    /// until `done` holds, and checks that nothing more arrives
    /// meanwhile. A conduit makes progress only inside a call on it, so a
    /// reader that has all its bytes keeps serving until its peer's
    /// `flush` returns.
    fn serve_until(conn: &StreamConduit, done: impl Fn() -> bool) {
        let mut byte = [0u8; 1];
        while !done() {
            match conn.read(&mut byte, Some(Duration::from_millis(1))) {
                Err(NetError::Timeout) => {}
                other => panic!("serving after the last byte: {other:?}"),
            }
        }
    }

    /// The client's wire packets the fault plan dropped, by per-link index.
    fn lost_from(fab: &Fabric, src: Addr) -> Vec<u64> {
        fab.fault_trace()
            .iter()
            .filter(|e| e.src == src)
            .map(|e| e.pkt)
            .collect()
    }

    fn connect_pair(fab: &Fabric, cfg: StreamConfig) -> (StreamConduit, StreamConduit) {
        let listener = StreamListener::bind(fab, Addr::new(1, 500), cfg.clone()).unwrap();
        let server = std::thread::scope(|s| {
            let h = s.spawn(|| listener.accept(Some(Duration::from_secs(5))).unwrap());
            let client = StreamConduit::connect(fab, NodeId(0), Addr::new(1, 500), cfg).unwrap();
            (client, h.join().unwrap())
        });
        server
    }

    #[test]
    fn handshake_and_echo() {
        let fab = Fabric::loopback();
        let (client, server) = connect_pair(&fab, StreamConfig::default());
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").unwrap();
        client.read_exact(&mut buf, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn bulk_transfer_exact_bytes() {
        let fab = Fabric::loopback();
        let (client, server) = connect_pair(&fab, StreamConfig::default());
        let data: Vec<u8> = (0..300_000u32).map(|i| (i % 253) as u8).collect();
        let expect = data.clone();
        std::thread::scope(|s| {
            s.spawn(move || client.write_all(&data).unwrap());
            let mut got = vec![0u8; expect.len()];
            server
                .read_exact(&mut got, Some(Duration::from_secs(10)))
                .unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn bulk_transfer_under_loss() {
        // 2% wire loss: retransmission must still deliver the exact stream.
        let fab = Fabric::new(WireConfig::with_loss(0.02, 99));
        let cfg = StreamConfig {
            rto_initial: Duration::from_millis(5),
            ..StreamConfig::default()
        };
        let (client, server) = connect_pair(&fab, cfg);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        std::thread::scope(|s| {
            s.spawn(move || client.write_all(&data).unwrap());
            let mut got = vec![0u8; expect.len()];
            server
                .read_exact(&mut got, Some(Duration::from_secs(30)))
                .unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn bulk_transfer_under_loss_adaptive() {
        // Adaptive congestion control shapes the sender's window and adds
        // SACK blocks to the wire; the delivered byte stream must still be
        // exact under loss.
        let fab = Fabric::new(WireConfig::with_loss(0.02, 42));
        let cfg = StreamConfig {
            rto_initial: Duration::from_millis(5),
            cc: CcAlgo::NewReno,
            ..StreamConfig::default()
        };
        let (client, server) = connect_pair(&fab, cfg);
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 249) as u8).collect();
        let expect = data.clone();
        std::thread::scope(|s| {
            s.spawn(move || client.write_all(&data).unwrap());
            let mut got = vec![0u8; expect.len()];
            server
                .read_exact(&mut got, Some(Duration::from_secs(30)))
                .unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn data_retry_exhaustion_resets_connection() {
        // Once the peer disappears, established-phase retransmissions are
        // bounded: the engine gives up after `max_retries` and the error
        // surfaces as a connection reset, not a hang.
        let fab = Fabric::loopback();
        let cfg = StreamConfig {
            rto_initial: Duration::from_millis(2),
            rto_max: Duration::from_millis(4),
            max_retries: 4,
            ..StreamConfig::default()
        };
        let (client, server) = connect_pair(&fab, cfg);
        drop(server); // peer endpoint unbinds; nothing will ACK again
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            if let Err(e) = client.write_all(b"spam into the void") {
                break e;
            }
            assert!(Instant::now() < deadline, "reset never surfaced");
            // Wait inside a call: only a call on the conduit runs the
            // retransmission timer that gives up.
            let _ = client.flush(Duration::from_millis(5));
        };
        assert_eq!(err, NetError::Reset);
    }

    #[test]
    fn server_pushes_first() {
        // The media-streaming pattern: the accepted side writes before the
        // client ever sends data (exercises SYN-ACK-era establishment).
        let fab = Fabric::loopback();
        let (client, server) = connect_pair(&fab, StreamConfig::default());
        server.write_all(b"stream-head").unwrap();
        let mut buf = [0u8; 11];
        client.read_exact(&mut buf, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&buf, b"stream-head");
    }

    #[test]
    fn eof_after_close() {
        let fab = Fabric::loopback();
        let (client, server) = connect_pair(&fab, StreamConfig::default());
        client.write_all(b"bye").unwrap();
        client.close();
        let mut buf = [0u8; 3];
        server.read_exact(&mut buf, Some(Duration::from_secs(2))).unwrap();
        let n = server.read(&mut buf, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 0, "expected EOF after peer close");
    }

    #[test]
    fn write_after_close_fails() {
        let fab = Fabric::loopback();
        let (client, _server) = connect_pair(&fab, StreamConfig::default());
        client.close();
        assert!(client.write_all(b"x").is_err());
    }

    #[test]
    fn connect_to_nothing_times_out() {
        let fab = Fabric::loopback();
        let cfg = StreamConfig {
            connect_timeout: Duration::from_millis(100),
            ..StreamConfig::default()
        };
        let err = match StreamConduit::connect(&fab, NodeId(0), Addr::new(7, 7), cfg) {
            Err(e) => e,
            Ok(_) => panic!("connect to unbound address succeeded"),
        };
        assert_eq!(err, NetError::Timeout);
    }

    #[test]
    fn flow_control_small_receive_buffer() {
        // 2 KiB receive buffer, 64 KiB transfer: the sender must stall on
        // the advertised window and resume as the reader drains.
        let fab = Fabric::loopback();
        let cfg = StreamConfig {
            rcv_buf: 2048,
            ..StreamConfig::default()
        };
        let (client, server) = connect_pair(&fab, cfg);
        let data: Vec<u8> = (0..65_536u32).map(|i| (i % 249) as u8).collect();
        let expect = data.clone();
        std::thread::scope(|s| {
            s.spawn(move || client.write_all(&data).unwrap());
            let mut got = vec![0u8; expect.len()];
            server
                .read_exact(&mut got, Some(Duration::from_secs(20)))
                .unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn memory_accounting_tracks_connections() {
        let reg = MemRegistry::new();
        let cfg = StreamConfig {
            mem: Some(reg.clone()),
            ..StreamConfig::default()
        };
        let fab = Fabric::loopback();
        let (client, server) = connect_pair(&fab, cfg);
        let per_conn = (32 * 1024 + 32 * 1024 + std::mem::size_of::<St>()) as u64;
        assert_eq!(reg.current("stream_conduit"), 2 * per_conn);
        assert_eq!(client.tracked_bytes(), per_conn);
        drop(client);
        drop(server);
        assert_eq!(reg.current("stream_conduit"), 0);
    }

    #[test]
    fn many_concurrent_connections() {
        let fab = Fabric::loopback();
        let listener =
            StreamListener::bind(&fab, Addr::new(1, 600), StreamConfig::default()).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut servers = Vec::new();
                for _ in 0..10 {
                    let c = listener.accept(Some(Duration::from_secs(5))).unwrap();
                    let mut b = [0u8; 2];
                    c.read_exact(&mut b, Some(Duration::from_secs(5))).unwrap();
                    c.write_all(&b).unwrap();
                    servers.push(c);
                }
            });
            let mut clients = Vec::new();
            for i in 0..10u8 {
                let c = StreamConduit::connect(
                    &fab,
                    NodeId(0),
                    Addr::new(1, 600),
                    StreamConfig::default(),
                )
                .unwrap();
                c.write_all(&[i, i]).unwrap();
                clients.push((i, c));
            }
            for (i, c) in &clients {
                let mut b = [0u8; 2];
                c.read_exact(&mut b, Some(Duration::from_secs(5))).unwrap();
                assert_eq!(b, [*i, *i]);
            }
        });
    }

    #[test]
    fn poll_mode_echo_without_threads() {
        let fab = Fabric::loopback();
        let cfg = StreamConfig::default();
        let listener = StreamListener::bind(&fab, Addr::new(1, 700), cfg.clone()).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(Some(Duration::from_secs(5))).unwrap());
            let client =
                StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 700), cfg).unwrap();
            let server = srv.join().unwrap();
            client.write_all(b"poll-mode ping").unwrap();
            let mut buf = [0u8; 14];
            server
                .read_exact(&mut buf, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(&buf, b"poll-mode ping");
            server.write_all(b"poll-mode pong").unwrap();
            client
                .read_exact(&mut buf, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(&buf, b"poll-mode pong");
        });
    }

    #[test]
    fn poll_mode_bulk_transfer() {
        let fab = Fabric::loopback();
        let cfg = StreamConfig::default();
        let listener = StreamListener::bind(&fab, Addr::new(1, 701), cfg.clone()).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(Some(Duration::from_secs(5))).unwrap());
            let client =
                StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 701), cfg).unwrap();
            let server = srv.join().unwrap();
            let data: Vec<u8> = (0..200_000u32).map(|i| (i % 241) as u8).collect();
            let expect = data.clone();
            s.spawn(move || client.write_all(&data).unwrap());
            let mut got = vec![0u8; expect.len()];
            server
                .read_exact(&mut got, Some(Duration::from_secs(20)))
                .unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn poll_mode_many_idle_connections_cheap() {
        // 200 idle connections: no threads, no CPU; they must
        // all still work afterwards.
        let fab = Fabric::loopback();
        let cfg = StreamConfig {
            snd_buf: 2048,
            rcv_buf: 2048,
            ..StreamConfig::default()
        };
        let listener = StreamListener::bind(&fab, Addr::new(1, 702), cfg.clone()).unwrap();
        std::thread::scope(|s| {
            let srv = s.spawn(|| {
                (0..200)
                    .map(|_| listener.accept(Some(Duration::from_secs(10))).unwrap())
                    .collect::<Vec<_>>()
            });
            let clients: Vec<_> = (0..200)
                .map(|_| {
                    StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 702), cfg.clone())
                        .unwrap()
                })
                .collect();
            let servers = srv.join().unwrap();
            for (i, c) in clients.iter().enumerate() {
                c.write_all(format!("msg{i:04}").as_bytes()).unwrap();
            }
            let mut matched = 0;
            for srv_conn in &servers {
                let mut buf = [0u8; 7];
                srv_conn
                    .read_exact(&mut buf, Some(Duration::from_secs(5)))
                    .unwrap();
                assert!(buf.starts_with(b"msg"));
                matched += 1;
            }
            assert_eq!(matched, 200);
        });
    }

    /// A segment's frame as one contiguous buffer.
    fn encode_frame(h: &SegHead, payload: &[u8]) -> Vec<u8> {
        let mut b = BytesMut::new();
        encode_header(&mut b, h, payload.len());
        b.extend_from_slice(payload);
        b.to_vec()
    }

    #[test]
    fn segment_roundtrip() {
        let head = SegHead {
            flags: FLAG_ACK | FLAG_FIN,
            seq: 0x0123_4567_89AB_CDEF,
            ack: 42,
            wnd: 31_337,
        };
        let frame = Bytes::from(encode_frame(&head, b"payload"));
        // However the frame is split between the packet header and its
        // payload parts, it decodes to the same segment.
        for cut in 0..frame.len() {
            let mut payload = SgBytes::new();
            payload.push(frame.slice(cut..cut + (frame.len() - cut) / 2));
            payload.push(frame.slice(cut + (frame.len() - cut) / 2..));
            let pkt = WirePacket::sg(
                Addr::new(0, 1),
                Addr::new(1, 1),
                frame.slice(..cut),
                payload,
            );
            let dec = decode_segment(pkt).unwrap();
            assert_eq!(dec.head.flags, head.flags);
            assert_eq!(dec.head.seq, head.seq);
            assert_eq!(dec.head.ack, head.ack);
            assert_eq!(dec.head.wnd, head.wnd);
            assert_eq!(&dec.payload.to_bytes()[..], b"payload", "cut {cut}");
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let none = |raw: &[u8]| {
            let frame = Bytes::copy_from_slice(raw);
            decode_segment(WirePacket::contiguous_frame(
                Addr::new(0, 1),
                Addr::new(1, 1),
                frame,
            ))
        };
        assert!(none(&[]).is_none());
        assert!(none(&[0xFF; 24]).is_none());
        let head = SegHead {
            flags: FLAG_ACK,
            seq: 1,
            ack: 1,
            wnd: 1,
        };
        let mut enc = encode_frame(&head, b"");
        enc.push(0); // trailing byte ⇒ length mismatch
        assert!(none(&enc).is_none());
    }

    /// A connected pair on its own fabric, so the fabric's
    /// counters see only this pair.
    fn poll_pair(cfg: StreamConfig) -> (Fabric, StreamConduit, StreamConduit) {
        let fab = Fabric::loopback();
        let listener = StreamListener::bind(&fab, Addr::new(1, 800), cfg.clone()).unwrap();
        let (client, server) = std::thread::scope(|s| {
            let srv = s.spawn(|| listener.accept(Some(Duration::from_secs(5))).unwrap());
            let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 800), cfg).unwrap();
            (client, srv.join().unwrap())
        });
        (fab, client, server)
    }

    fn counter(fab: &Fabric, name: &str) -> u64 {
        fab.telemetry().snapshot().get(name).unwrap_or(0)
    }

    #[test]
    fn vectored_write_is_invisible_on_the_wire() {
        let bufs: Vec<Vec<u8>> = [700usize, 1476, 3000, 10, 1, 2000, 5000]
            .iter()
            .enumerate()
            .map(|(k, &n)| (0..n).map(|i| (i * 7 + k) as u8).collect())
            .collect();
        let total: usize = bufs.iter().map(Vec::len).sum();
        assert!(total <= StreamConfig::default().snd_buf);
        let run = |vectored: bool| {
            let (fab, client, server) = poll_pair(StreamConfig::default());
            if vectored {
                let slices: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
                client.write_all_vectored(&slices).unwrap();
            } else {
                for b in &bufs {
                    client.write_all(b).unwrap();
                }
            }
            let mut got = vec![0u8; total];
            server
                .read_exact(&mut got, Some(Duration::from_secs(5)))
                .unwrap();
            // Let the sender take in the last ACKs.
            client.progress(Duration::from_millis(10));
            (
                counter(&fab, "simnet.stream.tx_segments"),
                counter(&fab, "simnet.fabric.tx_bytes"),
                got,
            )
        };
        let (segs_v, bytes_v, got_v) = run(true);
        let (segs_s, bytes_s, got_s) = run(false);
        assert_eq!(segs_v, segs_s, "segment count");
        assert_eq!(bytes_v, bytes_s, "fabric bytes");
        assert_eq!(got_v, bufs.concat());
        assert_eq!(got_s, bufs.concat());
    }

    #[test]
    fn window_limited_segment_spanning_two_chunks_arrives_intact() {
        // A 3000-byte receive window: the first write leaves 1000 bytes
        // unsent behind it, the second queues a chunk of its own, and
        // the window update releases one segment across both chunks.
        let (fab, client, server) = poll_pair(StreamConfig {
            rcv_buf: 3000,
            ..StreamConfig::default()
        });
        let mss = client.mss();
        assert!(mss < 3000 && 3000 < 2 * mss + 1000);
        let a: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..1000u32).map(|i| (i % 13) as u8 ^ 0x5A).collect();
        let data_segments =
            || counter(&fab, "simnet.stream.tx_segments") - counter(&fab, "simnet.stream.acks_tx");
        let before = data_segments();
        client.write_all(&a).unwrap();
        client.write_all(&b).unwrap();
        // The server takes in the first window and reopens it.
        let mut got = vec![0u8; a.len() + b.len()];
        let n = server.read(&mut got, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 3000);
        // The client sends the rest: `mss` bytes across the two chunks,
        // then what remains.
        client.progress(Duration::from_millis(10));
        server
            .read_exact(&mut got[n..], Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(got, [a, b].concat());
        // 2 full segments + the window's 48-byte tail, then 2 more.
        assert_eq!(data_segments() - before, 5);
    }

    #[test]
    fn threaded_vectored_transfer_larger_than_the_send_buffer() {
        let fab = Fabric::loopback();
        let cfg = StreamConfig::default();
        let (client, server) = connect_pair(&fab, cfg.clone());
        let bufs: Vec<Vec<u8>> = (0..40usize)
            .map(|k| (0..(k * 977) % 4000 + 1).map(|i| (i + k) as u8).collect())
            .collect();
        let expect = bufs.concat();
        assert!(expect.len() > 2 * cfg.snd_buf);
        std::thread::scope(|s| {
            s.spawn(|| {
                let slices: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
                client.write_all_vectored(&slices).unwrap();
            });
            let mut got = vec![0u8; expect.len()];
            server
                .read_exact(&mut got, Some(Duration::from_secs(10)))
                .unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn flush_alone_retransmits_a_lost_tail() {
        // The client's link carries the handshake ACK (packet 0), then the
        // four data segments (1..=4). The first transmission of the last
        // one is lost; no later segment draws duplicate ACKs, so only the
        // client's timer recovers it, and that timer runs inside `flush`.
        let fab = Fabric::loopback();
        let mut plan = FaultPlan::quiet(1);
        plan.partitions.push(PartitionWindow { start: 4, end: 5 });
        fab.install_fault_plan(plan);
        let cfg = StreamConfig {
            rto_initial: Duration::from_millis(5),
            ..StreamConfig::default()
        };
        let listener = StreamListener::bind(&fab, Addr::new(1, 900), cfg.clone()).unwrap();
        let flushed = AtomicBool::new(false);
        let client = std::thread::scope(|s| {
            let srv = s.spawn(|| {
                let server = listener.accept(Some(Duration::from_secs(5))).unwrap();
                let mut got = vec![0u8; 3 * server.mss() + 100];
                server
                    .read_exact(&mut got, Some(Duration::from_secs(10)))
                    .unwrap();
                serve_until(&server, || flushed.load(Ordering::Acquire));
                got
            });
            let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 900), cfg).unwrap();
            let data: Vec<u8> = (0..3 * client.mss() + 100).map(|i| (i % 253) as u8).collect();
            client.write_all(&data).unwrap();
            let r = client.flush(Duration::from_secs(10));
            flushed.store(true, Ordering::Release);
            r.unwrap();
            assert_eq!(srv.join().unwrap(), data);
            client
        });
        // The plan partitions every link alike; the client's link lost
        // only that one packet.
        assert_eq!(lost_from(&fab, client.local_addr()), [4]);
        assert!(counter(&fab, "simnet.stream.rto_retransmits") >= 1);
    }

    #[test]
    fn drive_step_changes_hands_in_both_directions() {
        // 5 % loss, 256 KiB each way, a writer and a reader thread on each
        // conduit: the drive step passes between them over and over.
        let fab = Fabric::new(WireConfig::with_loss(0.05, 47));
        let cfg = StreamConfig {
            rto_initial: Duration::from_millis(5),
            rto_max: Duration::from_millis(50),
            ..StreamConfig::default()
        };
        let (a, b) = connect_pair(&fab, cfg);
        let data: Vec<u8> = (0..256 * 1024u32).map(|i| (i % 241) as u8).collect();
        let flushed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for (tx, rx) in [(&a, &b), (&b, &a)] {
                let (data, flushed) = (&data, &flushed);
                s.spawn(move || {
                    tx.write_all(data).unwrap();
                    let r = tx.flush(Duration::from_secs(30));
                    flushed.fetch_add(1, Ordering::AcqRel);
                    r.unwrap();
                });
                s.spawn(move || {
                    let mut got = vec![0u8; data.len()];
                    rx.read_exact(&mut got, Some(Duration::from_secs(30)))
                        .unwrap();
                    assert!(got == *data, "corrupted delivery");
                    serve_until(rx, || flushed.load(Ordering::Acquire) == 2);
                });
            }
        });
    }

    #[test]
    fn zero_timeout_read_takes_arrived_bytes() {
        // `read(Some(ZERO))` runs one non-blocking drive step: bytes
        // already in the endpoint's ring come out, behind the handshake
        // ACK that the same step takes in.
        let (_fab, client, server) = poll_pair(StreamConfig::default());
        client.write_all(b"polled").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(server.read(&mut buf, Some(Duration::ZERO)), Ok(6));
        assert_eq!(&buf, b"polled");
        assert_eq!(
            server.read(&mut buf, Some(Duration::ZERO)),
            Err(NetError::Timeout)
        );
    }

    #[test]
    fn drop_resends_a_lost_fin() {
        // The client's link carries the handshake ACK (packet 0), "bye"
        // (1) and the FIN (2), whose first transmission is lost. The
        // client's only call after its flush is its drop.
        let fab = Fabric::loopback();
        let mut plan = FaultPlan::quiet(1);
        plan.partitions.push(PartitionWindow { start: 2, end: 3 });
        fab.install_fault_plan(plan);
        let cfg = StreamConfig::default();
        let listener = StreamListener::bind(&fab, Addr::new(1, 901), cfg.clone()).unwrap();
        let client_addr = std::thread::scope(|s| {
            let srv = s.spawn(|| {
                let server = listener.accept(Some(Duration::from_secs(5))).unwrap();
                let mut buf = [0u8; 3];
                server
                    .read_exact(&mut buf, Some(Duration::from_secs(5)))
                    .unwrap();
                assert_eq!(&buf, b"bye");
                server.read(&mut buf, Some(Duration::from_secs(5)))
            });
            let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 901), cfg).unwrap();
            client.write_all(b"bye").unwrap();
            client.flush(Duration::from_secs(5)).unwrap();
            let addr = client.local_addr();
            drop(client);
            assert_eq!(srv.join().unwrap(), Ok(0), "no end of stream");
            addr
        });
        assert_eq!(lost_from(&fab, client_addr), [2]);
    }
}
