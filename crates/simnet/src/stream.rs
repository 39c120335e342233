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
//!   of the overhead sources datagram-iWARP eliminates;
//! * per-connection state registered with a [`MemRegistry`] so the memory
//!   scalability experiment (paper Fig. 11) measures real footprints.
//!
//! The implementation is intentionally *stream-oriented*: it has no notion
//! of message boundaries, which is exactly why the iWARP MPA layer above it
//! must insert markers (paper §II) — an overhead the datagram path avoids.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use iwarp_cc::{CcAlgo, RecoveryConfig, RecoveryEngine};
use iwarp_telemetry::{Counter, EndpointId, EventKind, Telemetry};
use parking_lot::{Condvar, Mutex};

use iwarp_common::memacct::{MemRegistry, MemScope};

use crate::error::{NetError, NetResult};
use crate::fabric::{Endpoint, Fabric};
use crate::wire::{Addr, NodeId};

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
    /// Lower bound on the adaptive retransmission timeout. Only applies
    /// under an adaptive `cc` algorithm; `CcAlgo::Fixed` floors the timer
    /// at `rto_initial`, matching the pre-engine behaviour.
    pub min_rto: Duration,
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
    /// Poll mode: no per-connection I/O thread is spawned; protocol
    /// processing (ACK handling, retransmission, delivery) runs inside
    /// `read`/`write_all`/`progress` calls instead. This is how the stack
    /// scales to tens of thousands of mostly idle connections (the
    /// paper's Fig. 11 memory experiment): an idle connection costs
    /// memory, not a thread.
    pub poll_mode: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            snd_buf: 32 * 1024,
            rcv_buf: 32 * 1024,
            rto_initial: Duration::from_millis(20),
            rto_max: Duration::from_secs(1),
            min_rto: Duration::from_millis(1),
            max_retries: 30,
            cc: CcAlgo::Fixed,
            connect_timeout: Duration::from_secs(5),
            mem: None,
            poll_mode: false,
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

#[derive(Debug)]
struct Segment {
    flags: u8,
    seq: u64,
    ack: u64,
    wnd: u32,
    payload: Bytes,
}

fn encode_segment(seg: &Segment) -> Bytes {
    let mut b = BytesMut::with_capacity(SEG_HEADER + seg.payload.len());
    b.put_u8(PROTO_STREAM);
    b.put_u8(seg.flags);
    b.put_u64(seg.seq);
    b.put_u64(seg.ack);
    b.put_u32(seg.wnd);
    b.put_u16(seg.payload.len() as u16);
    b.extend_from_slice(&seg.payload);
    b.freeze()
}

fn decode_segment(raw: &[u8]) -> Option<Segment> {
    if raw.len() < SEG_HEADER || raw[0] != PROTO_STREAM {
        return None;
    }
    let flags = raw[1];
    let seq = u64::from_be_bytes(raw[2..10].try_into().ok()?);
    let ack = u64::from_be_bytes(raw[10..18].try_into().ok()?);
    let wnd = u32::from_be_bytes(raw[18..22].try_into().ok()?);
    let len = usize::from(u16::from_be_bytes(raw[22..24].try_into().ok()?));
    if raw.len() != SEG_HEADER + len {
        return None;
    }
    Some(Segment {
        flags,
        seq,
        ack,
        wnd,
        payload: Bytes::copy_from_slice(&raw[SEG_HEADER..]),
    })
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
    send_q: VecDeque<u8>,
    /// Next expected receive sequence number.
    rcv_nxt: u64,
    /// In-order bytes ready for `read`.
    recv_q: VecDeque<u8>,
    /// Out-of-order segments keyed by their start sequence number.
    ooo: BTreeMap<u64, Bytes>,
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
    shutdown: bool,
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

    /// Copies `len` bytes starting `offset` into the retransmission queue
    /// into a fresh `Bytes` (the queue fronts at `snd_una`).
    fn slice_send_q(&self, offset: usize, len: usize) -> Bytes {
        let mut out = BytesMut::with_capacity(len);
        let (a, b) = self.send_q.as_slices();
        if offset < a.len() {
            let take = (a.len() - offset).min(len);
            out.extend_from_slice(&a[offset..offset + take]);
            if take < len {
                out.extend_from_slice(&b[..len - take]);
            }
        } else {
            let off = offset - a.len();
            out.extend_from_slice(&b[off..off + len]);
        }
        out.freeze()
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
        min_rto: if fixed { cfg.rto_initial } else { cfg.min_rto },
        max_rto: cfg.rto_max,
        backoff: true,
        max_retries: cfg.max_retries,
        dup_threshold: 3,
        rtx_queue_cap: 1024,
        paced: false,
    }
}

/// Coalesces the receiver's out-of-order map into at most
/// [`MAX_SACK_RANGES`] half-open `(lo, hi)` byte ranges, big-endian.
fn encode_sack(ooo: &BTreeMap<u64, Bytes>) -> Bytes {
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

/// Telemetry handles resolved once per connection (loss-path only, but a
/// registry round-trip per retransmit would still be needless).
struct StreamTel {
    tel: Telemetry,
    retransmits: Counter,
    fast_retransmits: Counter,
    rto_retransmits: Counter,
    zero_window_probes: Counter,
}

struct Inner {
    ep: Endpoint,
    cfg: StreamConfig,
    mss: usize,
    st: Mutex<St>,
    readable: Condvar,
    writable: Condvar,
    established: Condvar,
    tel: StreamTel,
    _mem: Mutex<Option<MemScope>>,
}

impl Inner {
    /// Transmits a segment to the peer. Called with the state lock held.
    fn tx(&self, st: &mut St, flags: u8, seq: u64, payload: Bytes) {
        let wnd = st.recv_window(self.cfg.rcv_buf);
        st.last_wnd_sent = wnd;
        let seg = Segment {
            flags,
            seq,
            ack: st.rcv_nxt,
            wnd,
            payload,
        };
        // Losing a segment here is equivalent to wire loss; reliability
        // comes from retransmission, so the send result is advisory only.
        let _ = self.ep.send_to(st.peer, encode_segment(&seg));
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
            if st.engine.pace_delay(t).is_some() {
                break; // paced: the next io_step retries after the gap
            }
            let len = unsent.min(self.mss).min((wnd - in_flight) as usize);
            if len == 0 {
                break;
            }
            let offset = (st.snd_nxt - st.snd_una) as usize;
            let payload = st.slice_send_q(offset, len);
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
            self.tx(st, FLAG_FIN | FLAG_ACK, seq, Bytes::new());
        }
        debug_assert_eq!(st.engine.nxt(), st.snd_nxt);
    }

    /// Handles one incoming segment. Called with the state lock held.
    fn on_segment(&self, st: &mut St, src: Addr, seg: Segment) {
        // While connecting, the SYN-ACK arrives from the server's dedicated
        // per-connection endpoint, not the listener address we dialled —
        // adopt that endpoint as our peer (the TCP accept-socket analog).
        if st.conn == Conn::SynSent {
            if seg.flags & (FLAG_SYN | FLAG_ACK) == (FLAG_SYN | FLAG_ACK) {
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
                    self.tx(st, FLAG_ACK, st.snd_nxt, Bytes::new());
                }
                return;
            }
            Conn::SynReceived => {
                if seg.flags & FLAG_SYN != 0 {
                    // Duplicate SYN (our SYN-ACK was lost): re-answer.
                    self.tx(st, FLAG_SYN | FLAG_ACK, 0, Bytes::new());
                    return;
                }
                if seg.flags & FLAG_ACK != 0 && seg.ack >= 1 {
                    st.conn = Conn::Established;
                    st.hs_deadline = None;
                    st.hs_retries = 0;
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
                    self.tx(st, FLAG_ACK, seq, Bytes::new());
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
                for (lo, hi) in decode_sack(&seg.payload) {
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
                st.send_q.drain(..drop_bytes.min(st.send_q.len()));
                st.snd_una = seg.ack;
                st.engine.on_cum_ack(t, seg.ack);
                self.writable.notify_all();
            } else if seg.ack == st.snd_una
                && st.in_flight() > 0
                && (seg.payload.is_empty() || seg.flags & FLAG_SACK != 0)
            {
                // A pure duplicate ACK (possibly carrying SACK blocks)
                // hints at head loss; the engine fast-retransmits once
                // enough hints accumulate.
                st.engine.on_dup_ack(t);
            }
            self.drain_rtx(st, &self.tel.fast_retransmits);
        }

        // Payload placement (SACK payloads are metadata, not stream data).
        let mut should_ack = false;
        let payload_len = if seg.flags & FLAG_SACK == 0 {
            seg.payload.len() as u64
        } else {
            0
        };
        if !seg.payload.is_empty() && seg.flags & FLAG_SACK == 0 {
            should_ack = true;
            let mut seq = seg.seq;
            let mut payload = seg.payload;
            let end = seq + payload.len() as u64;
            if end > st.rcv_nxt {
                if seq < st.rcv_nxt {
                    // Retransmission overlapping delivered data: trim.
                    payload = payload.slice((st.rcv_nxt - seq) as usize..);
                    seq = st.rcv_nxt;
                }
                if seq == st.rcv_nxt {
                    let space = self
                        .cfg
                        .rcv_buf
                        .saturating_sub(st.recv_q.len() + st.ooo_bytes);
                    let take = payload.len().min(space);
                    st.recv_q.extend(&payload[..take]);
                    st.rcv_nxt += take as u64;
                    if take == payload.len() {
                        self.drain_ooo(st);
                    }
                    self.readable.notify_all();
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
                self.readable.notify_all();
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
            self.tx(st, FLAG_ACK | FLAG_SACK, seq, sack);
        } else {
            self.tx(st, FLAG_ACK, seq, Bytes::new());
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
            st.recv_q.extend(&payload[skip..skip + take]);
            st.rcv_nxt += take as u64;
            if take < payload.len() - skip {
                break; // buffer full; rest will be retransmitted
            }
        }
    }

    /// Retransmits one engine-identified range `[seq, seq + len)`.
    fn retransmit_range(&self, st: &mut St, seq: u64, len: usize) {
        self.tel.retransmits.inc();
        if self.tel.tel.tracer().armed() {
            let local = self.ep.local_addr();
            self.tel.tel.tracer().record(
                self.tel.tel.now_nanos(),
                EndpointId::new(local.node.0, local.port),
                EventKind::Retransmit,
                st.in_flight(),
                seq,
            );
        }
        if st.fin_seq == Some(seq) {
            self.tx(st, FLAG_FIN | FLAG_ACK, seq, Bytes::new());
            return;
        }
        let offset = (seq - st.snd_una) as usize;
        let avail = st.send_q.len().saturating_sub(offset).min(len);
        if avail > 0 {
            let payload = st.slice_send_q(offset, avail);
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
        self.readable.notify_all();
        self.writable.notify_all();
        self.established.notify_all();
    }

    /// Handshake retransmission timer (SYN / SYN-ACK only).
    fn on_hs_rto(&self, st: &mut St) {
        st.hs_retries += 1;
        if st.hs_retries > MAX_HS_RETRIES {
            self.fail(st, NetError::Timeout);
            return;
        }
        self.tel.rto_retransmits.inc();
        self.tel.retransmits.inc();
        match st.conn {
            Conn::SynSent => self.tx(st, FLAG_SYN, 0, Bytes::new()),
            Conn::SynReceived => self.tx(st, FLAG_SYN | FLAG_ACK, 0, Bytes::new()),
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
                self.tel.zero_window_probes.inc();
                let payload = st.slice_send_q(st.data_in_flight(), 1);
                let seq = st.snd_nxt;
                st.snd_nxt += 1;
                st.engine.on_send(t, 1);
                self.tx(st, FLAG_ACK, seq, payload);
            }
            return;
        }
        if ev.rto_fired {
            self.drain_rtx(st, &self.tel.rto_retransmits);
        }
    }
}

impl Inner {
    /// One I/O iteration: wait up to `max_wait` for a wire packet, process
    /// everything queued, fire due retransmission timers, pump output.
    /// Shared by the per-connection I/O thread and poll-mode callers.
    fn io_step(&self, max_wait: Duration) {
        let wait = {
            let st = self.st.lock();
            if st.shutdown {
                return;
            }
            let mut w = max_wait;
            if let Some(d) = st.hs_deadline {
                w = w.min(d.saturating_duration_since(Instant::now()));
            }
            if st.conn == Conn::Established {
                if let Some(d) = st.engine.rto_deadline() {
                    w = w.min(d.saturating_sub(st.engine.now()));
                }
            }
            w
        };
        let pkt = self.ep.recv(Some(wait));
        let mut st = self.st.lock();
        if st.shutdown {
            return;
        }
        match pkt {
            Ok(p) => {
                if let Some(seg) = decode_segment(&p.contiguous()) {
                    self.on_segment(&mut st, p.src, seg);
                }
                // Drain everything already queued before checking timers.
                while let Ok(p) = self.ep.try_recv() {
                    if let Some(seg) = decode_segment(&p.contiguous()) {
                        self.on_segment(&mut st, p.src, seg);
                    }
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
        if st.conn == Conn::Established {
            self.established.notify_all();
        }
        if st.conn == Conn::Closed {
            self.readable.notify_all();
            self.writable.notify_all();
            self.established.notify_all();
        }
    }
}

/// I/O pump: one thread per connection handling incoming segments and
/// retransmission timers (threaded mode only).
fn io_loop(inner: &Arc<Inner>) {
    loop {
        if inner.st.lock().shutdown {
            return;
        }
        inner.io_step(Duration::from_millis(10));
    }
}

/// A reliable, connection-oriented byte stream over the fabric — the TCP
/// stand-in underneath RC-mode iWARP.
pub struct StreamConduit {
    inner: Arc<Inner>,
    io: Option<std::thread::JoinHandle<()>>,
}

impl StreamConduit {
    /// Actively opens a connection from `local_node` to `server`.
    pub fn connect(
        fabric: &Fabric,
        local_node: NodeId,
        server: Addr,
        cfg: StreamConfig,
    ) -> NetResult<Self> {
        let ep = fabric.bind_ephemeral(local_node)?;
        let conduit = Self::build(ep, server, Conn::SynSent, cfg);
        {
            let mut st = conduit.inner.st.lock();
            conduit.inner.tx(&mut st, FLAG_SYN, 0, Bytes::new());
            conduit.inner.arm_hs_rto(&mut st);
        }
        // Wait for the handshake.
        let deadline = Instant::now() + conduit.inner.cfg.connect_timeout;
        loop {
            {
                let mut st = conduit.inner.st.lock();
                let established = st.conn == Conn::Established;
                if established {
                    drop(st);
                    return Ok(conduit);
                }
                if let Some(e) = &st.err {
                    return Err(e.clone());
                }
                if st.conn == Conn::Closed {
                    return Err(NetError::Closed);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(NetError::Timeout);
                }
                if !conduit.inner.cfg.poll_mode {
                    conduit
                        .inner
                        .established
                        .wait_for(&mut st, deadline - now);
                    continue;
                }
            }
            conduit
                .inner
                .io_step((deadline - Instant::now().min(deadline)).min(Duration::from_millis(20)));
        }
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
        let t = ep.fabric().telemetry().clone();
        let tel = StreamTel {
            retransmits: t.counter("simnet.stream.retransmits"),
            fast_retransmits: t.counter("simnet.stream.fast_retransmits"),
            rto_retransmits: t.counter("simnet.stream.rto_retransmits"),
            zero_window_probes: t.counter("simnet.stream.zero_window_probes"),
            tel: t,
        };
        let inner = Arc::new(Inner {
            ep,
            mss,
            tel,
            st: Mutex::new(St {
                conn,
                peer,
                snd_una,
                snd_nxt,
                snd_wnd: 0,
                send_q: VecDeque::new(),
                rcv_nxt,
                recv_q: VecDeque::new(),
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
                shutdown: false,
            }),
            cfg,
            readable: Condvar::new(),
            writable: Condvar::new(),
            established: Condvar::new(),
            _mem: Mutex::new(mem),
        });
        let io = if inner.cfg.poll_mode {
            None
        } else {
            let io_inner = Arc::clone(&inner);
            Some(
                std::thread::Builder::new()
                    .name("stream-io".into())
                    .spawn(move || io_loop(&io_inner))
                    .expect("spawn stream io thread"),
            )
        };
        Self { inner, io }
    }

    /// Local address of this connection's endpoint.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.ep.local_addr()
    }

    /// The peer's address.
    #[must_use]
    pub fn peer_addr(&self) -> Addr {
        self.inner.st.lock().peer
    }

    /// Maximum segment size (wire MTU minus stream header).
    #[must_use]
    pub fn mss(&self) -> usize {
        self.inner.mss
    }

    /// Writes all of `buf` into the stream, blocking for send-buffer space.
    pub fn write_all(&self, buf: &[u8]) -> NetResult<()> {
        let inner = &self.inner;
        let mut written = 0;
        while written < buf.len() {
            {
                let mut st = inner.st.lock();
                if let Some(e) = &st.err {
                    return Err(e.clone());
                }
                if st.conn == Conn::Closed || st.fin_requested {
                    return Err(NetError::Closed);
                }
                let space = inner.cfg.snd_buf - st.send_q.len();
                if space > 0 {
                    let take = space.min(buf.len() - written);
                    st.send_q.extend(&buf[written..written + take]);
                    written += take;
                    inner.pump(&mut st);
                    continue;
                }
                if !inner.cfg.poll_mode {
                    inner.writable.wait(&mut st);
                    continue;
                }
            }
            // Poll mode: make protocol progress while waiting for space.
            inner.io_step(Duration::from_millis(5));
        }
        Ok(())
    }

    /// Reads up to `buf.len()` bytes, blocking at most `timeout`
    /// (`None` = indefinitely). Returns 0 at end-of-stream (peer FIN).
    pub fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> NetResult<usize> {
        let inner = &self.inner;
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let mut st = inner.st.lock();
            if !st.recv_q.is_empty() {
                let n = st.recv_q.len().min(buf.len());
                let (a, b) = st.recv_q.as_slices();
                let ta = a.len().min(n);
                buf[..ta].copy_from_slice(&a[..ta]);
                if ta < n {
                    buf[ta..n].copy_from_slice(&b[..n - ta]);
                }
                st.recv_q.drain(..n);
                // Window update: if we had choked the sender, reopen.
                let wnd = st.recv_window(inner.cfg.rcv_buf);
                if st.last_wnd_sent < inner.mss as u32 && wnd >= inner.mss as u32 {
                    let seq = st.snd_nxt;
                    inner.tx(&mut st, FLAG_ACK, seq, Bytes::new());
                }
                return Ok(n);
            }
            if st.peer_closed {
                return Ok(0);
            }
            if let Some(e) = &st.err {
                return Err(e.clone());
            }
            if st.conn == Conn::Closed {
                return Err(NetError::Closed);
            }
            let now = Instant::now();
            if let Some(d) = deadline {
                if now >= d {
                    return Err(NetError::Timeout);
                }
            }
            if !inner.cfg.poll_mode {
                match deadline {
                    None => {
                        inner.readable.wait(&mut st);
                    }
                    Some(d) => {
                        inner.readable.wait_for(&mut st, d - now);
                    }
                }
                continue;
            }
            drop(st);
            // Poll mode: drive the protocol ourselves while waiting.
            let step = match deadline {
                Some(d) => (d - now).min(Duration::from_millis(20)),
                None => Duration::from_millis(20),
            };
            inner.io_step(step);
        }
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

    /// Poll-mode driver: performs one protocol iteration, waiting at most
    /// `max_wait` for incoming wire packets. No-op usefulness in threaded
    /// mode (the I/O thread already does this).
    pub fn progress(&self, max_wait: Duration) {
        self.inner.io_step(max_wait);
    }

    /// Gracefully closes the send side: pending data is flushed, then FIN.
    pub fn close(&self) {
        let mut st = self.inner.st.lock();
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
    fn drop(&mut self) {
        self.close();
        // Give the FIN a brief chance to be (re)delivered, then stop.
        let deadline = Instant::now() + Duration::from_millis(100);
        if self.inner.cfg.poll_mode {
            // A poll-mode peer may be idle and never acknowledge our FIN;
            // linger only while untransmitted data remains (the FIN itself
            // went out synchronously in close()).
            loop {
                {
                    let st = self.inner.st.lock();
                    if st.unsent() == 0 || st.conn != Conn::Established || Instant::now() >= deadline
                    {
                        break;
                    }
                }
                self.inner.io_step(Duration::from_millis(2));
            }
            self.inner.st.lock().shutdown = true;
        } else {
            {
                let mut st = self.inner.st.lock();
                while st.fin_seq.is_none_or(|f| st.snd_una <= f)
                    && st.conn == Conn::Established
                    && Instant::now() < deadline
                {
                    self.inner
                        .writable
                        .wait_for(&mut st, Duration::from_millis(10));
                }
                st.shutdown = true;
            }
            if let Some(io) = self.io.take() {
                let _ = io.join();
            }
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
            let Some(seg) = decode_segment(&pkt.contiguous()) else {
                continue;
            };
            if seg.flags & FLAG_SYN == 0 || seg.flags & FLAG_ACK != 0 {
                continue;
            }
            {
                let mut seen = self.seen.lock();
                let now = Instant::now();
                seen.retain(|_, t| now.duration_since(*t) < Duration::from_secs(10));
                if seen.contains_key(&pkt.src) {
                    continue; // duplicate SYN; the spawned conduit re-answers
                }
                seen.insert(pkt.src, now);
            }
            // Dedicated endpoint for this connection (TCP accept analog).
            let conn_ep = self.fabric.bind_ephemeral(self.ep.local_addr().node)?;
            let conduit =
                StreamConduit::build(conn_ep, pkt.src, Conn::SynReceived, self.cfg.clone());
            {
                let mut st = conduit.inner.st.lock();
                conduit
                    .inner
                    .tx(&mut st, FLAG_SYN | FLAG_ACK, 0, Bytes::new());
                conduit.inner.arm_hs_rto(&mut st);
            }
            return Ok(conduit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireConfig;

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
        // Adaptive congestion control changes the sender's pacing and adds
        // SACK blocks to the wire; the delivered byte stream must still be
        // exact under loss for every algorithm.
        for cc in [CcAlgo::NewReno, CcAlgo::Cubic] {
            let fab = Fabric::new(WireConfig::with_loss(0.02, 42));
            let cfg = StreamConfig {
                rto_initial: Duration::from_millis(5),
                cc,
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
                assert_eq!(got, expect, "corrupt stream under {cc}");
            });
        }
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
            std::thread::sleep(Duration::from_millis(5));
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
        let cfg = StreamConfig {
            poll_mode: true,
            ..StreamConfig::default()
        };
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
        let cfg = StreamConfig {
            poll_mode: true,
            ..StreamConfig::default()
        };
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
        // 200 idle poll-mode connections: no threads, no CPU; they must
        // all still work afterwards.
        let fab = Fabric::loopback();
        let cfg = StreamConfig {
            poll_mode: true,
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

    #[test]
    fn segment_roundtrip() {
        let seg = Segment {
            flags: FLAG_ACK | FLAG_FIN,
            seq: 0x0123_4567_89AB_CDEF,
            ack: 42,
            wnd: 31_337,
            payload: Bytes::from_static(b"payload"),
        };
        let enc = encode_segment(&seg);
        let dec = decode_segment(&enc).unwrap();
        assert_eq!(dec.flags, seg.flags);
        assert_eq!(dec.seq, seg.seq);
        assert_eq!(dec.ack, seg.ack);
        assert_eq!(dec.wnd, seg.wnd);
        assert_eq!(dec.payload, seg.payload);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_segment(&[]).is_none());
        assert!(decode_segment(&[0xFF; 24]).is_none());
        let seg = Segment {
            flags: FLAG_ACK,
            seq: 1,
            ack: 1,
            wnd: 1,
            payload: Bytes::new(),
        };
        let mut enc = encode_segment(&seg).to_vec();
        enc.push(0); // trailing byte ⇒ length mismatch
        assert!(decode_segment(&enc).is_none());
    }
}
