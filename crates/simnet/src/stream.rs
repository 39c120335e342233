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
//! **Progress is the owner's**, by the drive engine and release rule of
//! the crate's `drive` module (`src/drive.rs`), as on
//! [`crate::rdgram::RdConduit`]: [`StreamConduit::connect`],
//! [`StreamConduit::read`], a [`StreamConduit::write_all_vectored`]
//! waiting for the handshake or for buffer space, and
//! [`StreamConduit::flush`] run the protocol. A drive step fires a due
//! handshake or engine timer and pumps output. A scope raises the wake
//! flag when it queued bytes, took an ACK, changed the connection state
//! or set an error. Segments wait in `St::outbox`, and the release step
//! sends them as one fabric burst, their headers in one arena. Dropping a
//! conduit closes it and lingers for the acknowledgements (see its
//! `Drop`).
//!
//! ACKs: one cumulative ACK per lock scope, as a delayed-ACK TCP sends
//! about one per two segments (RFC 1122 §4.2.3.2). In-order data and a
//! FIN only raise `St::ack_owed`; every segment the scope sends carries
//! the current ACK number and clears it, and the release step turns a
//! flag still raised into one pure ACK. That ACK is built after the
//! scope's `read` has popped what it placed, so it advertises the window
//! the reader left. Out-of-order, duplicate and beyond-window data are
//! still acknowledged at once, so the sender's duplicate-ACK count and
//! SACK scoreboard see every such segment (RFC 5681 §4.2). The advertised
//! window does not shrink for out-of-order bytes, which lie inside it, and
//! a pure ACK that changes the window is a window update, not a duplicate
//! (RFC 5681 §2).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use iwarp_cc::{CcAlgo, RecoveryConfig, RecoveryEngine};
use iwarp_common::sg::SgBytes;
use iwarp_telemetry::{Counter, EndpointId, EventKind, Telemetry};
use parking_lot::Mutex;

use iwarp_common::memacct::{MemRegistry, MemScope};

use crate::drive::{Driver, Locked, Protocol};
use crate::error::{NetError, NetResult};
use crate::fabric::{Endpoint, Fabric};
use crate::ring::Deadline;
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
    let seq = u64::from_be_bytes(raw[2..10].try_into().ok()?);
    // A forged sequence number near `u64::MAX` would overflow the end of
    // the segment or its FIN in the receiver's arithmetic: reject it.
    seq.checked_add(len as u64 + 1)?;
    Some(Segment {
        head: SegHead {
            flags: raw[1],
            seq,
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
    /// Handshake (SYN / SYN-ACK) retransmission timer, on the driver's
    /// clock. Once the connection is established, all loss recovery moves
    /// to `engine`.
    hs_deadline: Option<Duration>,
    hs_rto: Duration,
    hs_retries: u32,
    /// Unified loss-recovery engine covering the data phase: scoreboard,
    /// RTT-adaptive RTO, dup-ACK/SACK-driven fast retransmit, and the
    /// congestion window when an adaptive `CcAlgo` is configured. Its
    /// sequence space mirrors `[snd_una, snd_nxt)` from sequence 1 on
    /// (the SYN at sequence 0 is handshake state, not engine state).
    engine: RecoveryEngine,
    last_wnd_sent: u32,
    /// The scope took data or a FIN in order and has not acknowledged
    /// it: its release step sends one pure ACK (see the module doc,
    /// "ACKs"). Every segment sent clears it.
    ack_owed: bool,
    err: Option<NetError>,
    /// Segments made in the current lock scope, in order, all for `peer`.
    /// The scope's release step drains them into one fabric burst, their
    /// headers in one arena, and sends it after unlocking, so the outbox
    /// is empty whenever the lock is free.
    outbox: Vec<Segment>,
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

    /// The window from `rcv_nxt` on. Out-of-order bytes lie inside it,
    /// so they do not shrink it: its right edge moves only when the
    /// reader takes bytes, and duplicate ACKs carry an unchanged window.
    fn recv_window(&self, rcv_buf: usize) -> u32 {
        rcv_buf.saturating_sub(self.recv_q.len()) as u32
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

/// The stream protocol core: everything but the state, which its driver
/// keeps behind the lock.
struct Inner {
    ep: Endpoint,
    cfg: StreamConfig,
    mss: usize,
    tel: Telemetry,
    mem: Option<MemScope>,
}

impl Inner {
    /// Queues a segment to the peer in the scope's outbox. Called with
    /// the state lock held; the scope's release step transmits it.
    fn tx(&self, st: &mut St, flags: u8, seq: u64, payload: SgBytes) {
        let wnd = st.recv_window(self.cfg.rcv_buf);
        st.last_wnd_sent = wnd;
        st.ack_owed = false;
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

    /// Queues this side's handshake segment: the client's SYN or the
    /// server's SYN-ACK.
    fn tx_syn(&self, st: &mut St) {
        let flags = match st.conn {
            Conn::SynSent => FLAG_SYN,
            _ => FLAG_SYN | FLAG_ACK,
        };
        self.tx(st, flags, 0, SgBytes::new());
    }

    /// Pushes out as much pending data as the peer's advertised window and
    /// the engine's congestion window allow, at `t`. Called with the lock
    /// held.
    fn pump(&self, st: &mut St, t: Duration) {
        if st.conn != Conn::Established {
            return;
        }
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

    /// Handles one incoming packet, arrived by `t`, if it is a segment.
    fn on_segment(&self, st: &mut Locked<St>, pkt: WirePacket, t: Duration) {
        let src = pkt.src;
        let Some(Segment { head: seg, payload }) = decode_segment(pkt) else {
            return;
        };
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
                    self.send_ack(st);
                }
                return;
            }
            Conn::SynReceived => {
                if seg.flags & FLAG_SYN != 0 {
                    // Duplicate SYN (our SYN-ACK was lost): re-answer.
                    self.tx_syn(st);
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
            let prev_wnd = std::mem::replace(&mut st.snd_wnd, seg.wnd);
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
                && seg.wnd == prev_wnd
            {
                // A pure duplicate ACK (possibly carrying SACK blocks)
                // hints at head loss; the engine fast-retransmits once
                // enough hints accumulate. One that moves the window is
                // a window update instead (RFC 5681 §2).
                st.engine.on_dup_ack(t);
            }
            self.drain_rtx(st, &self.tel.simnet().stream_fast_retransmits, t);
        }

        // Payload placement (SACK payloads are metadata, not stream data).
        let payload = if seg.flags & FLAG_SACK == 0 {
            payload
        } else {
            SgBytes::new()
        };
        let payload_len = payload.len() as u64;
        let prev_rcv_nxt = st.rcv_nxt;
        let mut should_ack = false;
        if !payload.is_empty() {
            should_ack = true;
            let seq = seg.seq;
            if seq <= st.rcv_nxt && seq + payload_len > st.rcv_nxt {
                // In order; a retransmission may overlap delivered data.
                if self.place(st, &payload, seq) {
                    self.drain_ooo(st);
                }
                st.wake = true;
            } else if seq > st.rcv_nxt && st.ooo_bytes + payload.len() <= self.cfg.rcv_buf {
                // Future segment: stash for later (dedup by start seq).
                if !st.ooo.contains_key(&seq) {
                    st.ooo_bytes += payload.len();
                    st.ooo.insert(seq, payload);
                }
            }
        }

        // Peer FIN.
        if seg.flags & FLAG_FIN != 0 {
            let fin_seq = seg.seq + payload_len;
            st.peer_fin = Some(fin_seq);
            should_ack = true;
        }
        if st.peer_fin == Some(st.rcv_nxt) && !st.peer_closed {
            st.rcv_nxt += 1;
            st.peer_closed = true;
            st.wake = true;
        }

        // In-order data is acknowledged once, at the scope's release
        // step; anything else at once (see the module doc, "ACKs").
        if should_ack {
            if st.rcv_nxt > prev_rcv_nxt && st.ooo.is_empty() {
                st.ack_owed = true;
            } else {
                self.send_ack(st);
            }
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
            if !self.place(st, &payload, seq) {
                break; // buffer full; rest will be retransmitted
            }
        }
    }

    /// Queues the bytes of `payload`, which starts at `seq <= rcv_nxt`,
    /// from `rcv_nxt` on for the reader, as far as the receive buffer has
    /// room. True if they all fit.
    fn place(&self, st: &mut St, payload: &SgBytes, seq: u64) -> bool {
        let skip = (st.rcv_nxt - seq) as usize;
        let space = self
            .cfg
            .rcv_buf
            .saturating_sub(st.recv_q.len() + st.ooo_bytes);
        let take = (payload.len() - skip).min(space);
        st.recv_q.push_sg(payload, skip, take);
        st.rcv_nxt += take as u64;
        take == payload.len() - skip
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
    fn drain_rtx(&self, st: &mut Locked<St>, kind: &Counter, t: Duration) {
        while let Some((seq, len)) = st.engine.pop_rtx(t) {
            kind.inc();
            self.retransmit_range(st, seq, len as usize);
        }
        if st.engine.is_dead() && st.conn != Conn::Closed {
            self.fail(st, NetError::Reset);
        }
    }

    fn fail(&self, st: &mut Locked<St>, err: NetError) {
        if st.err.is_none() {
            st.err = Some(err);
        }
        st.conn = Conn::Closed;
        st.wake = true;
    }

    /// Handshake retransmission timer (SYN / SYN-ACK only), fired at `t`.
    fn on_hs_rto(&self, st: &mut Locked<St>, t: Duration) {
        st.hs_retries += 1;
        if st.hs_retries > MAX_HS_RETRIES {
            self.fail(st, NetError::Timeout);
            return;
        }
        self.tel.simnet().stream_rto_retransmits.inc();
        self.tel.simnet().stream_retransmits.inc();
        self.tx_syn(st);
        st.hs_rto = (st.hs_rto * 2).min(self.cfg.rto_max);
        st.hs_deadline = Some(t + st.hs_rto);
    }

    /// Established-phase timer, fired at `t`: lets the engine sweep, then
    /// acts on what it decided (head retransmission, zero-window probe, or
    /// death).
    fn on_engine_timer(&self, st: &mut Locked<St>, t: Duration) {
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
            self.drain_rtx(st, &self.tel.simnet().stream_rto_retransmits, t);
        }
    }
}

impl Protocol for Inner {
    type State = St;
    type Input = WirePacket;
    type Output = (Addr, Vec<(Bytes, SgBytes)>);
    const IDLE: Duration = IDLE_STEP;
    const FLOOR: Duration = Duration::ZERO;

    fn recv(&self, wait: Duration) -> NetResult<WirePacket> {
        self.ep.recv(&mut Deadline::After(wait))
    }

    fn try_recv(&self) -> NetResult<WirePacket> {
        self.ep.try_recv()
    }

    fn on_input(&self, st: &mut Locked<St>, pkt: WirePacket, now: Duration) {
        self.on_segment(st, pkt, now);
    }

    /// Fires a due handshake or engine timer and pumps output; a
    /// lower-layer error closes the connection first.
    fn after_step(&self, st: &mut Locked<St>, lower: NetResult<()>, now: Duration) {
        if lower.is_err() {
            st.err = Some(NetError::Closed);
            st.conn = Conn::Closed;
        }
        let due = |d: Option<Duration>| d.is_some_and(|d| now >= d);
        match st.conn {
            Conn::SynSent | Conn::SynReceived if due(st.hs_deadline) => self.on_hs_rto(st, now),
            Conn::Established if due(st.engine.rto_deadline()) => self.on_engine_timer(st, now),
            _ => {}
        }
        self.pump(st, now);
        st.wake |= st.conn == Conn::Closed;
    }

    /// The handshake timer, or once established the engine's.
    fn next_deadline(&self, st: &St) -> Option<Duration> {
        let engine = (st.conn == Conn::Established)
            .then(|| st.engine.rto_deadline())
            .flatten();
        st.hs_deadline.into_iter().chain(engine).min()
    }

    /// Turns an owed ACK into one pure ACK, then drains the outbox into
    /// one burst with its headers in one arena.
    fn take_output(&self, st: &mut St) -> Option<(Addr, Vec<(Bytes, SgBytes)>)> {
        if st.ack_owed {
            self.send_ack(st);
        }
        if st.outbox.is_empty() {
            return None;
        }
        let mut arena = BytesMut::with_capacity(st.outbox.len() * SEG_HEADER);
        for seg in &st.outbox {
            encode_header(&mut arena, &seg.head, seg.payload.len());
        }
        let arena = arena.freeze();
        let frames = st
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
        Some((st.peer, frames))
    }

    fn send(&self, (peer, frames): (Addr, Vec<(Bytes, SgBytes)>)) {
        // Losing a segment here is equivalent to wire loss; reliability
        // comes from retransmission, so the send result is advisory.
        let _ = self.ep.send_burst(peer, frames);
    }
}

/// A reliable, connection-oriented byte stream over the fabric — the TCP
/// stand-in underneath RC-mode iWARP.
pub struct StreamConduit {
    /// Boxed: an RC QP holds its conduit inline and accounts its own
    /// `size_of`, which the conduit's state must not inflate.
    drv: Box<Driver<Inner>>,
}

impl StreamConduit {
    /// Actively opens a connection from `local_node` to `server`, and runs
    /// the handshake until it completes or `connect_timeout` passes.
    pub fn connect(
        fabric: &Fabric,
        local_node: NodeId,
        server: Addr,
        cfg: StreamConfig,
    ) -> NetResult<Self> {
        let ep = fabric.bind_ephemeral(local_node)?;
        let conduit = Self::build(ep, server, Conn::SynSent, cfg);
        let drv = &conduit.drv;
        drv.wait_until(Some(drv.core.cfg.connect_timeout), |st, _| match st.conn {
            Conn::Established => Some(Ok(())),
            Conn::Closed => Some(Err(st.err.clone().unwrap_or(NetError::Closed))),
            Conn::SynSent | Conn::SynReceived => None,
        })?;
        Ok(conduit)
    }

    /// A conduit in `conn`, a handshake state, that has sent its first
    /// handshake segment.
    fn build(ep: Endpoint, peer: Addr, conn: Conn, cfg: StreamConfig) -> Self {
        let mss = ep.mtu() - SEG_HEADER;
        // The whole locked state, the driver's fields included.
        let mem = cfg.mem.as_ref().map(|reg| {
            reg.track(
                "stream_conduit",
                (cfg.snd_buf + cfg.rcv_buf + std::mem::size_of::<Locked<St>>()) as u64,
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
        let st = St {
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
            ack_owed: false,
            err: None,
            outbox: Vec::new(),
        };
        let core = Inner {
            ep,
            cfg,
            mss,
            tel,
            mem,
        };
        let drv = Box::new(Driver::new(core, st));
        // Open the handshake: the client's SYN or the server's SYN-ACK.
        drv.scope(|st, clock| {
            drv.core.tx_syn(st);
            st.hs_deadline = Some(clock.now() + st.hs_rto);
        });
        Self { drv }
    }

    /// Local address of this connection's endpoint.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.drv.core.ep.local_addr()
    }

    /// The peer's address.
    #[must_use]
    pub fn peer_addr(&self) -> Addr {
        self.drv.scope(|st, _| st.peer)
    }

    /// Maximum segment size (wire MTU minus stream header).
    #[must_use]
    pub fn mss(&self) -> usize {
        self.drv.core.mss
    }

    /// Writes all of `buf` into the stream, blocking for send-buffer space:
    /// a [`write_all_vectored`](StreamConduit::write_all_vectored) of one
    /// buffer.
    pub fn write_all(&self, buf: &[u8]) -> NetResult<()> {
        self.write_all_vectored(&[buf])
    }

    /// Writes all of `bufs`, in order, into the stream, running the
    /// conduit's protocol while it waits for the handshake to complete or
    /// for send-buffer space. Returns once every byte is queued (not once
    /// acknowledged: see [`flush`](StreamConduit::flush)).
    ///
    /// Each lock scope copies as much as the send buffer has room for
    /// into one chunk (the socket-write copy), then queues it one window
    /// per buffer and pumps after each. Segments therefore break where one
    /// [`write_all`](StreamConduit::write_all) per buffer would break
    /// them: a buffer that fits the window leaves as its own segments,
    /// which keeps MPA's FPDUs segment-aligned (RFC 5044's sender rule).
    pub fn write_all_vectored(&self, bufs: &[&[u8]]) -> NetResult<()> {
        let inner = &self.drv.core;
        // The first unwritten byte: buffer `i`, offset `off` into it.
        let (mut i, mut off) = (0usize, 0usize);
        self.drv.wait_until(None, |st, clock| {
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
                    inner.pump(st, clock.now());
                    at += n;
                    (i, off) = (b, from + n);
                }
            }
        })
    }

    /// Reads up to `buf.len()` bytes, running the conduit's protocol for
    /// at most `timeout` (`None` = indefinitely) while none are buffered.
    /// Returns 0 at end-of-stream (peer FIN). A zero timeout runs one
    /// non-blocking drive step (unless another caller holds it) before
    /// reporting [`NetError::Timeout`].
    pub fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> NetResult<usize> {
        let inner = &self.drv.core;
        self.drv.wait_until(timeout, |st, _| {
            if !st.recv_q.is_empty() {
                let n = st.recv_q.pop_into(buf);
                // Window update: if we had choked the sender, reopen.
                let wnd = st.recv_window(inner.cfg.rcv_buf);
                if st.last_wnd_sent < inner.mss as u32 && wnd >= inner.mss as u32 {
                    st.ack_owed = true;
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

    /// Runs the conduit's protocol until every written byte (and a
    /// requested FIN) is acknowledged, for at most `timeout`. Nothing is
    /// written before the handshake completes, so a conduit still in it
    /// is flushed.
    pub fn flush(&self, timeout: Duration) -> NetResult<()> {
        self.drv.wait_until(Some(timeout), |st, _| match st.conn {
            Conn::Established if st.in_flight() > 0 || !st.send_q.is_empty() => None,
            Conn::Closed => Some(Err(st.err.clone().unwrap_or(NetError::Closed))),
            Conn::SynSent | Conn::SynReceived | Conn::Established => Some(Ok(())),
        })
    }

    /// One drive step, waiting at most `max_wait` for incoming wire
    /// packets, unless another caller holds the drive step: then it waits
    /// at most `max_wait` for that caller's next wake.
    pub fn progress(&self, max_wait: Duration) {
        let mut polled = false;
        let _ = self.drv.wait_until(Some(max_wait), |_, _| {
            std::mem::replace(&mut polled, true).then_some(Ok(()))
        });
    }

    /// Gracefully closes the send side: pending data is flushed, then FIN.
    pub fn close(&self) {
        self.drv.scope(|st, clock| {
            if !st.fin_requested {
                st.fin_requested = true;
                self.drv.core.pump(st, clock.now());
            }
        });
    }

    /// Heap bytes of connection state currently tracked for this conduit.
    #[must_use]
    pub fn tracked_bytes(&self) -> u64 {
        self.drv.core.mem.as_ref().map_or(0, MemScope::bytes)
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
        let drv = &self.drv;
        let data = drv.wait_until(Some(LINGER), |st, _| {
            (st.conn != Conn::Established || st.send_q.is_empty()).then_some(Ok(()))
        });
        if data.is_ok() && self.flush(FIN_PROBE) == Err(NetError::Timeout) {
            drv.scope(|st, _| {
                if let Some(fin) = st.fin_seq {
                    drv.core.retransmit_range(st, fin, 1);
                }
            });
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
    seen: Mutex<HashMap<Addr, Instant>>,
}

impl StreamListener {
    /// Binds a listener at `addr`.
    pub fn bind(fabric: &Fabric, addr: Addr, cfg: StreamConfig) -> NetResult<Self> {
        Ok(Self {
            ep: fabric.bind(addr)?,
            fabric: fabric.clone(),
            cfg,
            seen: Mutex::new(HashMap::new()),
        })
    }

    /// The listening address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.ep.local_addr()
    }

    /// Waits for the next incoming connection. Each pass reads the clock
    /// once, after its packet came or its wait ended: that one read stamps
    /// a new client and bounds the next wait, whose deadline is built at
    /// the first miss.
    pub fn accept(&self, timeout: Option<Duration>) -> NetResult<StreamConduit> {
        let mut deadline = None;
        let mut got = self.ep.try_recv();
        loop {
            let now = Instant::now();
            if let Some(src) = self.new_client(got, now)? {
                // Dedicated endpoint for this connection (TCP accept analog).
                let ep = self.fabric.bind_ephemeral(self.ep.local_addr().node)?;
                let cfg = self.cfg.clone();
                return Ok(StreamConduit::build(ep, src, Conn::SynReceived, cfg));
            }
            got = self.ep.try_recv();
            if matches!(got, Err(NetError::Timeout)) {
                let left = timeout.map(|t| {
                    let d = deadline.get_or_insert(now + t);
                    d.saturating_duration_since(now)
                });
                if left == Some(Duration::ZERO) {
                    return Err(NetError::Timeout);
                }
                got = self.ep.recv(&mut Deadline::within(left));
            }
        }
    }

    /// The sender of `got`, received by `now`, if it is a SYN from a new
    /// client.
    fn new_client(&self, got: NetResult<WirePacket>, now: Instant) -> NetResult<Option<Addr>> {
        let pkt = match got {
            Err(NetError::Timeout) => return Ok(None),
            got => got?,
        };
        let src = pkt.src;
        match decode_segment(pkt) {
            Some(seg) if seg.head.flags & (FLAG_SYN | FLAG_ACK) == FLAG_SYN => {}
            _ => return Ok(None),
        }
        let mut seen = self.seen.lock();
        seen.retain(|_, t| now.duration_since(*t) < Duration::from_secs(10));
        if seen.contains_key(&src) {
            return Ok(None); // duplicate SYN; the spawned conduit re-answers
        }
        seen.insert(src, now);
        Ok(Some(src))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

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
        server
            .read_exact(&mut buf, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(&buf, b"ping");
        server.write_all(b"pong").unwrap();
        client
            .read_exact(&mut buf, Some(Duration::from_secs(2)))
            .unwrap();
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
        client
            .read_exact(&mut buf, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(&buf, b"stream-head");
    }

    #[test]
    fn eof_after_close() {
        let fab = Fabric::loopback();
        let (client, server) = connect_pair(&fab, StreamConfig::default());
        client.write_all(b"bye").unwrap();
        client.close();
        let mut buf = [0u8; 3];
        server
            .read_exact(&mut buf, Some(Duration::from_secs(2)))
            .unwrap();
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
        let per_conn = (32 * 1024 + 32 * 1024 + std::mem::size_of::<Locked<St>>()) as u64;
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
            let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 700), cfg).unwrap();
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
            let client = StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 701), cfg).unwrap();
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
                    StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 702), cfg.clone()).unwrap()
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
            let data: Vec<u8> = (0..3 * client.mss() + 100)
                .map(|i| (i % 253) as u8)
                .collect();
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
    fn no_segment_leaves_under_the_state_lock() {
        // On a latency-free fabric the arrival notifier runs in the sending
        // thread, right after the segment lands, so it sees whether the
        // sender still holds its state lock. Data and ACKs both ways.
        let (fab, client, server) = poll_pair(StreamConfig::default());
        let (a, b) = (Arc::new(client), Arc::new(server));
        let sent = Arc::new(AtomicUsize::new(0));
        let under_lock = Arc::new(AtomicUsize::new(0));
        for (rx, tx) in [(&a, &b), (&b, &a)] {
            let tx = Arc::downgrade(tx);
            let (sent, under_lock) = (Arc::clone(&sent), Arc::clone(&under_lock));
            let notify: crate::fabric::RxNotify = Arc::new(move |_| {
                sent.fetch_add(1, Ordering::Relaxed);
                let tx = tx.upgrade().expect("the sender outlives its sends");
                if tx.drv.is_locked() {
                    under_lock.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(fab.set_notify(rx.local_addr(), Some(notify)));
        }
        for i in 0..3u8 {
            for (tx, rx) in [(&a, &b), (&b, &a)] {
                tx.write_all(&[i]).unwrap();
                // One zero-wait drive step takes the data (and any ACK
                // queued before it) and sends this side's ACK.
                let mut got = [0u8; 1];
                assert_eq!(rx.read(&mut got, Some(Duration::ZERO)), Ok(1));
                assert_eq!(got, [i]);
            }
        }
        // The notifiers go before the conduits, whose drop sends a FIN.
        for c in [&a, &b] {
            assert!(fab.set_notify(c.local_addr(), None));
        }
        // 6 data segments and their 6 ACKs.
        assert_eq!(sent.load(Ordering::Relaxed), 12);
        assert_eq!(
            under_lock.load(Ordering::Relaxed),
            0,
            "segments sent while the sender held its state lock"
        );
    }

    #[test]
    fn a_writer_that_sleeps_releases_its_segments_first() {
        // A reader thread holds the client's drive step for the whole
        // transfer, so the writer on the same conduit never drives: each
        // time it wakes it pumps, finds the send buffer full again, and
        // must send what it queued before it sleeps.
        let cfg = StreamConfig::default();
        let total = 8 * cfg.snd_buf;
        let (_fab, client, server) = poll_pair(cfg);
        let data = pattern(total);
        std::thread::scope(|s| {
            let echo = s.spawn(|| {
                let mut got = vec![0u8; total];
                server
                    .read_exact(&mut got, Some(Duration::from_secs(10)))
                    .unwrap();
                server.write_all(&[7]).unwrap();
                server.flush(Duration::from_secs(5)).unwrap();
                got
            });
            let reader = s.spawn(|| {
                let mut byte = [0u8; 1];
                let n = client.read(&mut byte, Some(Duration::from_secs(10)));
                n.map(|n| (n, byte[0]))
            });
            while !client.drv.is_driven() {
                std::thread::yield_now();
            }
            client.write_all(&data).unwrap();
            assert_eq!(reader.join().unwrap(), Ok((1, 7)));
            assert!(echo.join().unwrap() == data, "corrupted delivery");
        });
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

    /// `n` bytes of test data.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn the_handshake_timer_backs_off_then_gives_up() {
        // Synthetic time: a SYN to nowhere, whose timer runs on the times
        // the test ends drive steps at, so 30 retries take no wall time.
        // The SYN is resent at each deadline and not before, the timeout
        // doubles up to `rto_max`, and the next expiry fails the
        // connection with `Timeout`.
        let fab = Fabric::loopback();
        let ep = fab.bind_ephemeral(NodeId(0)).unwrap();
        let cfg = StreamConfig::default();
        let (mut rto, rto_max) = (cfg.rto_initial, cfg.rto_max);
        let conn = StreamConduit::build(ep, Addr::new(9, 9), Conn::SynSent, cfg);
        conn.drv.with_locked(|core, st| {
            for _ in 0..MAX_HS_RETRIES {
                let d = st.hs_deadline.expect("armed");
                core.after_step(st, Ok(()), d - Duration::from_micros(1));
                assert!(st.outbox.is_empty(), "the SYN was resent early");
                core.after_step(st, Ok(()), d);
                let syn = st.outbox.pop().expect("the SYN is resent");
                assert_eq!((syn.head.flags, st.outbox.len()), (FLAG_SYN, 0));
                rto = (rto * 2).min(rto_max);
                assert_eq!(st.hs_deadline, Some(d + rto));
            }
            assert_eq!(rto, rto_max);
            let d = st.hs_deadline.expect("armed");
            core.after_step(st, Ok(()), d);
            assert!(st.outbox.is_empty());
            assert_eq!(
                (st.conn, st.err.clone()),
                (Conn::Closed, Some(NetError::Timeout))
            );
        });
        assert_eq!(conn.write_all(b"late"), Err(NetError::Timeout));
    }

    #[test]
    fn one_ack_per_drive_step() {
        // A 16 KiB write leaves as one burst of 12 segments; the
        // receiver's one drive step takes them all and acknowledges them
        // with one cumulative ACK.
        let (fab, client, server) = poll_pair(StreamConfig::default());
        client.write_all(&pattern(16 * 1024)).unwrap();
        let acks = counter(&fab, "simnet.stream.acks_tx");
        server.progress(Duration::from_millis(10));
        assert_eq!(counter(&fab, "simnet.stream.acks_tx") - acks, 1);
        let mut got = vec![0u8; 16 * 1024];
        server
            .read_exact(&mut got, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(got, pattern(16 * 1024));
    }

    #[test]
    fn ack_carries_the_window_after_the_read() {
        // One drive step places 16 KiB and the same scope's read takes
        // it all: the scope's ACK advertises the whole buffer again.
        let cfg = StreamConfig::default();
        let rcv_buf = cfg.rcv_buf;
        let (_fab, client, server) = poll_pair(cfg);
        client.write_all(&pattern(16 * 1024)).unwrap();
        let mut got = vec![0u8; 16 * 1024];
        assert_eq!(server.read(&mut got, Some(Duration::ZERO)), Ok(16 * 1024));
        client.progress(Duration::from_millis(10));
        let (una, nxt, wnd) = client
            .drv
            .scope(|st, _| (st.snd_una, st.snd_nxt, st.snd_wnd));
        assert_eq!(una, nxt, "all data acknowledged");
        assert_eq!(wnd as usize, rcv_buf);
    }

    #[test]
    fn out_of_order_data_is_acked_per_segment() {
        // The client's link carries the handshake ACK (packet 0), then a
        // 16 KiB burst (1..=12); the third data segment is lost. Each of
        // the nine segments behind it draws its own ACK (the server's
        // link loses its packet 3 too, one of them), so `Fixed` counts
        // the duplicates and retransmits long before its 10 s timer.
        let fab = Fabric::loopback();
        let mut plan = FaultPlan::quiet(1);
        plan.partitions.push(PartitionWindow { start: 3, end: 4 });
        fab.install_fault_plan(plan);
        let cfg = StreamConfig {
            rto_initial: Duration::from_secs(10),
            ..StreamConfig::default()
        };
        let (client, server) = connect_pair(&fab, cfg);
        let data = pattern(16 * 1024);
        client.write_all(&data).unwrap();
        server.progress(Duration::from_millis(10));
        client.progress(Duration::from_millis(10));
        assert_eq!(lost_from(&fab, client.local_addr()), [3]);
        assert!(counter(&fab, "simnet.stream.fast_retransmits") >= 1);
        let mut got = vec![0u8; data.len()];
        server
            .read_exact(&mut got, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(got, data);
        assert_eq!(counter(&fab, "simnet.stream.rto_retransmits"), 0);
    }

    #[test]
    fn window_update_is_not_a_duplicate_ack() {
        // Data in flight and a peer that only moves its window: three
        // such ACKs at the unacknowledged head are window updates, not
        // duplicates (RFC 5681 §2). Three more with the window unchanged
        // are duplicates, and `Fixed` fast-retransmits the head.
        let cfg = StreamConfig {
            rto_initial: Duration::from_secs(10),
            ..StreamConfig::default()
        };
        let (fab, client, server) = poll_pair(cfg);
        client.write_all(&pattern(4 * client.mss())).unwrap();
        let send_acks = |wnds: [u32; 3]| {
            for wnd in wnds {
                let head = SegHead {
                    flags: FLAG_ACK,
                    seq: 1,
                    ack: 1,
                    wnd,
                };
                let frame = Bytes::from(encode_frame(&head, b""));
                server
                    .drv
                    .core
                    .ep
                    .send_to(client.local_addr(), frame)
                    .unwrap();
            }
            client.progress(Duration::from_millis(10));
        };
        send_acks([8 * 1024, 16 * 1024, 24 * 1024]);
        assert_eq!(client.drv.scope(|st, _| st.snd_wnd), 24 * 1024);
        assert_eq!(counter(&fab, "simnet.stream.fast_retransmits"), 0);
        send_acks([24 * 1024; 3]);
        assert_eq!(counter(&fab, "simnet.stream.fast_retransmits"), 1);
    }
}
