//! `RdConduit` — a reliable datagram (RD) service.
//!
//! The paper's design explicitly keeps datagram-iWARP compatible with
//! *reliable* datagram lower layers: "applications that currently use TCP
//! can also be supported via a reliable UDP implementation that provides
//! the order and reliability guarantees they require" (§IV.B). This module
//! is that reliable-UDP stand-in: message-oriented like UDP, but with
//! per-peer sequencing, cumulative + selective acknowledgements,
//! retransmission and in-order delivery.
//!
//! It layers on [`DgramConduit`], so a single "RD message" still enjoys the
//! all-or-nothing fragmentation semantics of the datagram service — the RD
//! layer then recovers whole lost messages rather than fragments.
//!
//! Loss recovery is delegated to [`iwarp_cc::RecoveryEngine`] (one per
//! peer): the engine owns the selective-repeat scoreboard, the RFC-6298
//! RTT estimator behind the retransmission timer, and the congestion
//! window. The default is [`CcAlgo::NewReno`]: once three later
//! messages are SACKed, a missing message is retransmitted (RFC 6675
//! *IsLost*), about one round trip after the loss; the adaptive timer,
//! capped at the legacy 20 ms, covers the rest. [`CcAlgo::Fixed`] keeps
//! the legacy implementation — fixed window, fixed 20 ms timer,
//! timer-driven recovery only — on the same wire format.
//!
//! **Progress is the owner's**, by the drive engine and release rule of
//! the crate's `drive` module (`src/drive.rs`): [`RdConduit::recv_from`],
//! a [`RdConduit::send_to`] blocked on its window and [`RdConduit::flush`]
//! run the protocol, whose drive step waits at most 5 ms (at least
//! 200 µs) for the next retransmission deadline. A scope raises the wake
//! flag when it queued a message, took an ACK or set an error. Every
//! frame — data, ACK, retransmission — waits in `St::outbox`, and the
//! release step sends the frames one datagram each, in queued order.
//!
//! **An engine above the conduit.** A threaded QP drives this conduit
//! from whichever thread waits for its completions, and from an engine
//! thread that runs one zero-wait drive step on an arrival or when a
//! timer is due. The arrival notifier ([`RdConduit::set_notify`]) tells
//! that engine when a receive call can make progress: a wire packet
//! landed, a drive step that no receive call ran delivered messages (the
//! release step re-runs the notifier), or a send or flush stopped driving
//! with packets still queued. Two reads that take no lock tell it about
//! timers: whether a retransmission timer is armed
//! ([`RdConduit::retransmit_armed`]), and the time to the earliest
//! deadline ([`RdConduit::retransmit_due_in`]), which each scope that can
//! move a timer publishes and the driver's clock measures.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use iwarp_cc::{CcAlgo, RecoveryConfig, RecoveryEngine};
use iwarp_common::sg::SgBytes;
use iwarp_telemetry::{EndpointId, EventKind, Telemetry};

use crate::dgram::DgramConduit;
use crate::drive::{Driver, Locked, Protocol};
use crate::error::{NetError, NetResult};
use crate::fabric::Fabric;
use crate::wire::{Addr, NodeId};

const TYPE_DATA: u8 = 0;
const TYPE_ACK: u8 = 1;

/// RD header: type(1) + seq(8). ACKs carry cum(8) + word-count(1) + a
/// variable-width SACK bitmap (`word-count` big-endian u64 words)
/// instead.
const DATA_HEADER: usize = 9;

/// Fixed prefix of an ACK frame: type(1) + cum(8) + word-count(1).
const ACK_PREFIX: usize = 10;

/// RTO floor of the adaptive estimator (not used under `Fixed`).
const MIN_RTO: Duration = Duration::from_millis(2);

/// Configuration of a reliable-datagram endpoint.
#[derive(Clone, Debug)]
pub struct RdConfig {
    /// Maximum unacknowledged *span* per peer: `next_seq - oldest_unacked`
    /// never exceeds this, which keeps every outstanding sequence inside
    /// the peer's SACK-bitmap horizon (`ceil(window / 64)` words).
    pub window: usize,
    /// Initial retransmission timeout. Under [`CcAlgo::Fixed`] this is
    /// the constant timer (legacy behavior); otherwise the RFC-6298
    /// estimator adapts from here.
    pub rto: Duration,
    /// RTO ceiling / backoff cap for the adaptive estimator (ignored
    /// under `Fixed`). The default is the legacy constant RTO, 20 ms, so
    /// the adaptive timer is never slower than `Fixed` and a dead peer
    /// still exhausts `max_retries` within the legacy ~3 s budget.
    pub max_rto: Duration,
    /// Retransmissions allowed per message before the conduit declares
    /// the peer dead and surfaces [`NetError::Reset`]. Generous because
    /// a large RD message rides one fragmented datagram: at 5% wire loss
    /// a 64 KiB datagram (≈44 fragments) survives only ~10% of attempts,
    /// so tens of retransmissions are routine, not pathological.
    pub max_retries: u32,
    /// Congestion-control algorithm. This config's default is written
    /// here, independently of [`crate::stream::StreamConfig::cc`]:
    /// [`CcAlgo::NewReno`], so a loss costs a round trip of SACK
    /// evidence rather than a full timeout.
    pub cc: CcAlgo,
}

impl Default for RdConfig {
    fn default() -> Self {
        Self {
            window: 64,
            rto: Duration::from_millis(20),
            max_rto: Duration::from_millis(20),
            max_retries: 150,
            cc: CcAlgo::NewReno,
        }
    }
}

impl RdConfig {
    /// The SACK bitmap width in words, `ceil(window / 64)`: the narrowest
    /// bitmap that describes every sequence the window lets the sender
    /// have outstanding. Fails when the window is 0 or the bitmap would
    /// not fit the wire format.
    pub fn resolve_sack_words(&self) -> NetResult<usize> {
        if self.window == 0 {
            return Err(NetError::Protocol("rd window must be at least 1"));
        }
        let words = self.window.div_ceil(64);
        if words > 255 {
            return Err(NetError::Protocol(
                "rd sack bitmap exceeds wire format (255 words / 16320 seqs)",
            ));
        }
        Ok(words)
    }

    fn recovery_config(&self) -> RecoveryConfig {
        let fixed = self.cc == CcAlgo::Fixed;
        RecoveryConfig {
            algo: self.cc,
            quantum: 1,
            init_cwnd: if fixed { self.window as u64 } else { 4 },
            fixed_window: self.window as u64,
            bdp_cap: self.window as u64,
            initial_rto: self.rto,
            // Fixed keeps the legacy constant timer; adaptive algorithms
            // get the full RFC-6298 treatment.
            min_rto: if fixed { self.rto } else { MIN_RTO },
            max_rto: if fixed { self.rto } else { self.max_rto },
            backoff: !fixed,
            max_retries: self.max_retries,
            rtx_queue_cap: self.window.max(64),
        }
    }
}

struct PeerTx {
    engine: RecoveryEngine,
    /// seq → finished data frame (header and payload) for everything the
    /// engine may still ask us to retransmit; a retransmission sends it
    /// unchanged. Entries drop as soon as the peer holds the message
    /// (cumulative or selective ACK).
    payloads: BTreeMap<u64, Bytes>,
}

#[derive(Default)]
struct PeerRx {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Bytes>,
}

#[derive(Default)]
struct St {
    tx: HashMap<Addr, PeerTx>,
    rx: HashMap<Addr, PeerRx>,
    ready: VecDeque<(Addr, Bytes)>,
    /// A drive step moved messages into `ready` since a receive call last
    /// looked at it: the release step re-runs the arrival notifier.
    delivered: bool,
    err: Option<NetError>,
    /// Frames built under the lock and not yet sent, in wire order. The
    /// release step takes them all, so the outbox is empty whenever the
    /// lock is free.
    outbox: Vec<(Addr, Bytes)>,
}

/// The RD protocol core: everything but the state, which its driver
/// keeps behind the lock.
struct Rd {
    dg: DgramConduit,
    cfg: RdConfig,
    /// Resolved SACK bitmap width (validated at bind).
    sack_words: usize,
    /// `sack_words * 64`: how far past `rcv_nxt` the receiver will hold
    /// out-of-order messages (anything farther is undescribable in an
    /// ACK, so it is dropped and recovered by retransmission).
    horizon: u64,
    tel: Telemetry,
    /// The earliest retransmission deadline in nanoseconds on the driver's
    /// clock, `u64::MAX` when no timer is armed: a copy of
    /// [`Protocol::next_deadline`] for readers that take no lock, stored
    /// by every scope that can move a timer (a send and a drive step's
    /// end).
    deadline: AtomicU64,
}

/// Reliable datagram endpoint: unreliable-datagram ergonomics with
/// TCP-grade delivery guarantees per peer.
pub struct RdConduit {
    drv: Driver<Rd>,
}

impl Rd {
    /// Frames `payload` as a data message whose sequence number `send_to`
    /// stamps under the state lock. This is the payload's one copy
    /// (counted), made before the lock is taken.
    fn data_frame(&self, payload: &SgBytes) -> BytesMut {
        let mut b = BytesMut::with_capacity(DATA_HEADER + payload.len());
        b.put_u8(TYPE_DATA);
        b.put_u64(0);
        for part in payload.parts() {
            b.extend_from_slice(part);
        }
        self.tel.simnet().bytes_copied.add(payload.len() as u64);
        b
    }

    fn send_ack(&self, dst: Addr, st: &mut St) {
        let Some(rx) = st.rx.get(&dst) else { return };
        let mut b = BytesMut::with_capacity(ACK_PREFIX + 8 * self.sack_words);
        b.put_u8(TYPE_ACK);
        b.put_u64(rx.rcv_nxt);
        b.put_u8(self.sack_words as u8);
        // The SACK bitmap, one word at a time: bit `d` of the bitmap is
        // `rcv_nxt + d`, and `ooo` yields its holdings in ascending order.
        let mut held = rx
            .ooo
            .range(rx.rcv_nxt..rx.rcv_nxt + self.horizon)
            .map(|(&seq, _)| seq - rx.rcv_nxt)
            .peekable();
        for w in 1..=self.sack_words as u64 {
            let mut word = 0u64;
            while let Some(d) = held.next_if(|&d| d < 64 * w) {
                word |= 1 << (d % 64);
            }
            b.put_u64(word);
        }
        self.tel.simnet().rdgram_acks_tx.inc();
        st.outbox.push((dst, b.freeze()));
    }

    /// Stores the earliest retransmission deadline for lock-free readers.
    fn publish_deadline(&self, st: &St) {
        let at = self
            .next_deadline(st)
            .map_or(u64::MAX, |d| d.as_nanos() as u64);
        self.deadline.store(at, Ordering::Release);
    }
}

impl Protocol for Rd {
    type State = St;
    type Input = (Addr, Bytes);
    /// The frames to send, and whether messages were delivered that no
    /// receive call took.
    type Output = (Vec<(Addr, Bytes)>, bool);
    const IDLE: Duration = Duration::from_millis(5);
    const FLOOR: Duration = Duration::from_micros(200);

    fn recv(&self, wait: Duration) -> NetResult<(Addr, Bytes)> {
        self.dg.recv_from(Some(wait))
    }

    fn try_recv(&self) -> NetResult<(Addr, Bytes)> {
        self.dg.try_recv_from()
    }

    fn on_input(&self, st: &mut Locked<St>, (src, data): (Addr, Bytes), now: Duration) {
        if data.is_empty() {
            return;
        }
        match data[0] {
            TYPE_DATA if data.len() >= DATA_HEADER => {
                let seq = u64::from_be_bytes(data[1..9].try_into().expect("len checked"));
                let payload = data.slice(DATA_HEADER..);
                let St { rx, ready, .. } = &mut **st;
                let rx = rx.entry(src).or_default();
                if seq == rx.rcv_nxt {
                    // Deliver it, then the contiguous out-of-order ones.
                    let mut next = Some(payload);
                    while let Some(p) = next {
                        rx.rcv_nxt += 1;
                        ready.push_back((src, p));
                        self.tel.simnet().rdgram_rx_msgs.inc();
                        next = rx.ooo.remove(&rx.rcv_nxt);
                    }
                    st.delivered = true;
                    st.wake = true;
                } else if seq > rx.rcv_nxt && seq < rx.rcv_nxt + self.horizon {
                    // Inside the SACK horizon: hold for reordering. Beyond
                    // it an ACK couldn't describe the message, so drop and
                    // let retransmission recover it (a conforming sender's
                    // window never reaches this far anyway).
                    rx.ooo.entry(seq).or_insert(payload);
                }
                // Duplicates (seq < rcv_nxt) are dropped; always re-ACK so
                // the sender learns our state.
                self.send_ack(src, st);
            }
            TYPE_ACK if data.len() >= ACK_PREFIX => {
                let cum = u64::from_be_bytes(data[1..9].try_into().expect("len checked"));
                let words = usize::from(data[9]);
                if data.len() < ACK_PREFIX + 8 * words {
                    return;
                }
                let Some(tx) = st.tx.get_mut(&src) else {
                    return;
                };
                if cum > tx.engine.nxt() {
                    // Acknowledges a message never sent: a forged or
                    // corrupt ACK, which would also overflow the SACK
                    // arithmetic below.
                    return;
                }
                if cum > tx.engine.una() {
                    tx.engine.on_cum_ack(now, cum);
                    // Everything below cum is delivered; forget payloads.
                    tx.payloads = tx.payloads.split_off(&cum);
                }
                let bitmap = data[ACK_PREFIX..].chunks_exact(8).take(words);
                for (w, word) in bitmap.enumerate() {
                    // Set bits in ascending order: bit `b` is `cum + 64w + b`.
                    let mut word = u64::from_be_bytes(word.try_into().expect("8 bytes"));
                    while word != 0 {
                        let seq = cum + 64 * w as u64 + u64::from(word.trailing_zeros());
                        word &= word - 1;
                        tx.engine.on_sack_seq(now, seq);
                        tx.payloads.remove(&seq);
                    }
                }
                if self.cfg.cc != CcAlgo::Fixed {
                    // A message with three later messages SACKed past it
                    // is lost; the engine fast-queues it. (The Fixed
                    // baseline stays timer-driven, like the legacy
                    // implementation.)
                    tx.engine.detect_losses(now);
                }
                st.wake = true;
            }
            _ => {}
        }
    }

    /// Checks per-peer retransmission timers, drains the retransmit
    /// queues, and surfaces retry exhaustion as a connection reset. That,
    /// or a lower-layer error, is stored for every caller.
    fn after_step(&self, st: &mut Locked<St>, lower: NetResult<()>, now: Duration) {
        let swept = lower.and_then(|()| {
            let St { tx, outbox, .. } = &mut **st;
            let alive = tx.iter_mut().all(|(&peer, tx)| {
                if tx.engine.sweep(now).dead {
                    return false;
                }
                while let Some((seq, _len)) = tx.engine.pop_rtx(now) {
                    let Some(frame) = tx.payloads.get(&seq) else {
                        continue;
                    };
                    self.tel.simnet().rdgram_retransmits.inc();
                    let local = self.dg.local_addr();
                    let len = (frame.len() - DATA_HEADER) as u64;
                    let id = EndpointId::new(local.node.0, local.port);
                    self.tel.trace(id, EventKind::Retransmit, len, seq);
                    outbox.push((peer, frame.clone()));
                }
                !tx.engine.is_dead()
            });
            alive.then_some(()).ok_or(NetError::Reset)
        });
        if let Err(e) = swept {
            st.err = Some(e);
            st.wake = true;
        }
        self.publish_deadline(st);
    }

    /// The earliest retransmission deadline of any peer.
    fn next_deadline(&self, st: &St) -> Option<Duration> {
        st.tx
            .values()
            .filter_map(|tx| tx.engine.rto_deadline())
            .min()
    }

    fn take_output(&self, st: &mut St) -> Option<Self::Output> {
        let delivered = std::mem::take(&mut st.delivered);
        (delivered || !st.outbox.is_empty()).then(|| (std::mem::take(&mut st.outbox), delivered))
    }

    fn send(&self, (frames, delivered): Self::Output) {
        for (dst, frame) in frames {
            let _ = self.dg.send_to(dst, frame);
        }
        if delivered {
            self.dg.renotify();
        }
    }

    /// Packets that landed after the last drive step's look wait for a
    /// receive call: a send or a flush that stopped driving re-runs the
    /// notifier for them.
    fn handed_off(&self) {
        if self.dg.rx_backlog() > 0 {
            self.dg.renotify();
        }
    }
}

impl RdConduit {
    /// Binds a reliable-datagram conduit at `addr`.
    ///
    /// Fails with [`NetError::Protocol`] when the config's window has no
    /// valid SACK bitmap (see [`RdConfig::resolve_sack_words`]).
    pub fn bind(fabric: &Fabric, addr: Addr, cfg: RdConfig) -> NetResult<Self> {
        Self::wrap(DgramConduit::bind(fabric, addr)?, cfg)
    }

    /// Binds at an ephemeral port on `node`.
    pub fn bind_ephemeral(fabric: &Fabric, node: NodeId, cfg: RdConfig) -> NetResult<Self> {
        Self::wrap(DgramConduit::bind_ephemeral(fabric, node)?, cfg)
    }

    fn wrap(dg: DgramConduit, cfg: RdConfig) -> NetResult<Self> {
        let sack_words = cfg.resolve_sack_words()?;
        let tel = dg.fabric().telemetry().clone();
        let core = Rd {
            dg,
            sack_words,
            horizon: sack_words as u64 * 64,
            cfg,
            tel,
            deadline: AtomicU64::new(u64::MAX),
        };
        Ok(Self {
            drv: Driver::new(core, St::default()),
        })
    }

    /// Local address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.drv.core.dg.local_addr()
    }

    /// The fabric this conduit is bound on.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        self.drv.core.dg.fabric()
    }

    /// Messages a receive call can still take: wire packets waiting in
    /// the underlying delivery ring (see [`DgramConduit::rx_backlog`])
    /// plus messages a drive step already delivered in order. One step
    /// can deliver several (a drained ring, a filled hole releasing the
    /// messages held behind it) while a receive call returns one.
    #[must_use]
    pub fn rx_backlog(&self) -> usize {
        self.drv.core.dg.rx_backlog() + self.drv.peek(|st, _| st.ready.len())
    }

    /// True when a zero-timeout [`Self::recv_from`] can make progress
    /// now: a message waits in order, or wire packets wait and no other
    /// call holds the drive step. A call that does takes the packets, and
    /// the arrival notifier runs for what it delivers or leaves behind.
    #[must_use]
    pub fn can_recv(&self) -> bool {
        let queued = self.drv.core.dg.rx_backlog() > 0;
        self.drv
            .peek(|st, driven| !st.ready.is_empty() || (queued && !driven))
    }

    /// Installs (or clears) the arrival notifier of the underlying
    /// datagram conduit ([`DgramConduit::set_notify`]). It runs once per
    /// delivered wire packet, data or ACK, and again when a receive call
    /// can make progress for another reason: a drive step run by a send
    /// or a flush delivered messages in order, or stopped with packets
    /// still queued.
    pub fn set_notify(&self, notify: Option<crate::fabric::RxNotify>) {
        self.drv.core.dg.set_notify(notify);
    }

    /// Runs the arrival notifier, if one is installed, as a delivery
    /// would.
    pub fn renotify(&self) {
        self.drv.core.dg.renotify();
    }

    /// The shortest wait a drive step makes for a retransmission timer:
    /// an engine that parks until [`Self::retransmit_due_in`] parks at
    /// least this long.
    pub const TIMER_FLOOR: Duration = <Rd as Protocol>::FLOOR;

    /// True while a retransmission timer is armed, i.e. some message sent
    /// here awaits its acknowledgement. Takes no lock and reads no clock.
    #[must_use]
    pub fn retransmit_armed(&self) -> bool {
        self.drv.core.deadline.load(Ordering::Acquire) != u64::MAX
    }

    /// The time until the earliest retransmission deadline: zero when a
    /// timer is due, `None` when none is armed. A drive step fires a due
    /// timer ([`Self::recv_from`] with a zero timeout runs one). Takes no
    /// lock; the time is the driver's clock.
    #[must_use]
    pub fn retransmit_due_in(&self) -> Option<Duration> {
        let at = self.drv.core.deadline.load(Ordering::Acquire);
        (at != u64::MAX).then(|| Duration::from_nanos(at).saturating_sub(self.drv.now()))
    }

    /// Largest message this conduit accepts (one datagram's worth).
    #[must_use]
    pub fn max_datagram(&self) -> usize {
        self.drv.core.dg.max_datagram() - DATA_HEADER
    }

    /// Sends `payload` reliably to `dst`; blocks while the per-peer send
    /// window (congestion window ∩ configured window) is full, running
    /// the conduit's protocol meanwhile. Returns once the message is
    /// queued and transmitted (not once acknowledged). The payload is
    /// copied once, into the frame the conduit keeps for retransmission.
    pub fn send_to(&self, dst: Addr, payload: SgBytes) -> NetResult<()> {
        if payload.len() > self.max_datagram() {
            return Err(NetError::TooBig {
                len: payload.len(),
                max: self.max_datagram(),
            });
        }
        let rd = &self.drv.core;
        let window = rd.cfg.window as u64;
        let mut frame = Some(rd.data_frame(&payload));
        self.drv.wait_until(None, |st, clock| {
            if let Some(e) = &st.err {
                return Some(Err(e.clone()));
            }
            let tx = st.tx.entry(dst).or_insert_with(|| PeerTx {
                engine: RecoveryEngine::new(rd.cfg.recovery_config()).with_telemetry(&rd.tel),
                payloads: BTreeMap::new(),
            });
            if !tx.engine.can_send(1, window) {
                return None;
            }
            let seq = tx.engine.on_send(clock.now(), 1);
            let mut frame = frame.take().expect("a send queues its frame once");
            frame[1..DATA_HEADER].copy_from_slice(&seq.to_be_bytes());
            let frame = frame.freeze();
            tx.payloads.insert(seq, frame.clone());
            rd.tel.simnet().rdgram_tx_msgs.inc();
            st.outbox.push((dst, frame));
            rd.publish_deadline(st);
            Some(Ok(()))
        })
    }

    /// Receives the next in-order message from any peer, running the
    /// conduit's protocol while it waits. A zero timeout runs one
    /// non-blocking drive step (unless another caller holds it) before
    /// reporting [`NetError::Timeout`].
    pub fn recv_from(&self, timeout: Option<Duration>) -> NetResult<(Addr, Bytes)> {
        self.drv.wait_until(timeout, |st, _| {
            st.delivered = false;
            let next = st.ready.pop_front();
            next.map(Ok).or_else(|| st.err.clone().map(Err))
        })
    }

    /// Runs the conduit's protocol until every queued message to every
    /// peer is acknowledged.
    pub fn flush(&self, timeout: Duration) -> NetResult<()> {
        self.drv.wait_until(Some(timeout), |st, _| {
            if st.tx.values().all(|t| t.engine.outstanding() == 0) {
                return Some(Ok(()));
            }
            st.err.clone().map(Err)
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    use super::*;
    use crate::chaos::{FaultPlan, PartitionWindow};
    use crate::wire::WireConfig;

    fn pair(fab: &Fabric) -> (RdConduit, RdConduit) {
        pair_with(fab, RdConfig::default())
    }

    fn pair_with(fab: &Fabric, cfg: RdConfig) -> (RdConduit, RdConduit) {
        let a = RdConduit::bind(fab, Addr::new(0, 300), cfg.clone()).unwrap();
        let b = RdConduit::bind(fab, Addr::new(1, 300), cfg).unwrap();
        (a, b)
    }

    /// Keeps `rx` driven — acknowledging its peers' retransmissions —
    /// until `done` holds, and checks that nothing more is delivered
    /// meanwhile. A conduit makes progress only inside a call on it, so
    /// a receiver that has all its messages must keep serving until its
    /// peer's `flush` returns.
    fn serve_until(rx: &RdConduit, done: impl Fn() -> bool) {
        while !done() {
            match rx.recv_from(Some(Duration::from_millis(1))) {
                Err(NetError::Timeout) => {}
                Ok((src, data)) => panic!("{} extra bytes from {src}", data.len()),
                Err(e) => panic!("serving after the last message: {e}"),
            }
        }
    }

    #[test]
    fn basic_roundtrip() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        a.send_to(b.local_addr(), Bytes::from_static(b"reliable").into())
            .unwrap();
        let (src, data) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(src, a.local_addr());
        assert_eq!(&data[..], b"reliable");
    }

    #[test]
    fn ordered_delivery_without_loss() {
        // The sender blocks on its window until the receiver, inside
        // `recv_from`, acknowledges: each side runs on its own thread.
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..200u32 {
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()).into())
                        .unwrap();
                }
            });
            for i in 0..200u32 {
                let (_, data) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
                assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
            }
        });
    }

    #[test]
    fn ordered_delivery_under_loss() {
        // 5% wire loss: the RD layer must still deliver every message,
        // in order, exactly once.
        let fab = Fabric::new(WireConfig::with_loss(0.05, 21));
        let (a, b) = pair(&fab);
        let n = 300u32;
        let flushed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()).into())
                        .unwrap();
                }
                let r = a.flush(Duration::from_secs(10));
                flushed.store(true, Ordering::Release);
                r.unwrap();
            });
            for i in 0..n {
                let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
            }
            serve_until(&b, || flushed.load(Ordering::Acquire));
        });
    }

    #[test]
    fn wide_window_needs_wide_bitmap() {
        // window 256 derives a 4-word bitmap; deliveries must survive
        // reordering across the whole widened horizon.
        let fab = Fabric::new(WireConfig::with_loss(0.02, 77));
        let cfg = RdConfig {
            window: 256,
            cc: CcAlgo::NewReno,
            ..RdConfig::default()
        };
        assert_eq!(cfg.resolve_sack_words().unwrap(), 4);
        let (a, b) = pair_with(&fab, cfg);
        let n = 600u32;
        let flushed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()).into())
                        .unwrap();
                }
                let r = a.flush(Duration::from_secs(10));
                flushed.store(true, Ordering::Release);
                r.unwrap();
            });
            for i in 0..n {
                let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
            }
            serve_until(&b, || flushed.load(Ordering::Acquire));
        });
    }

    #[test]
    fn inconsistent_config_rejected() {
        let fab = Fabric::loopback();
        let zero_window = RdConfig {
            window: 0,
            ..RdConfig::default()
        };
        assert!(matches!(
            RdConduit::bind(&fab, Addr::new(0, 311), zero_window),
            Err(NetError::Protocol(_))
        ));
        // Past 255 bitmap words (16 320 sequences) an ACK cannot describe
        // the window.
        let too_wide = RdConfig {
            window: 60_000,
            ..RdConfig::default()
        };
        assert!(matches!(
            RdConduit::bind(&fab, Addr::new(0, 313), too_wide),
            Err(NetError::Protocol(_))
        ));
        // Derivation: window 100 needs 2 words.
        assert_eq!(
            RdConfig {
                window: 100,
                ..RdConfig::default()
            }
            .resolve_sack_words()
            .unwrap(),
            2
        );
    }

    #[test]
    fn retry_exhaustion_surfaces_reset() {
        // A peer that never answers: the sender must give up after
        // max_retries and surface Reset instead of retrying forever.
        let fab = Fabric::loopback();
        let cfg = RdConfig {
            rto: Duration::from_millis(2),
            max_retries: 4,
            ..RdConfig::default()
        };
        let a = RdConduit::bind(&fab, Addr::new(0, 320), cfg).unwrap();
        // No conduit at the destination: data vanishes, no ACKs come.
        a.send_to(Addr::new(9, 9), Bytes::from_static(b"void").into())
            .unwrap();
        let err = a.flush(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetError::Reset);
        // Subsequent operations observe the reset too.
        assert_eq!(
            a.send_to(Addr::new(9, 9), Bytes::from_static(b"x").into())
                .unwrap_err(),
            NetError::Reset
        );
    }

    #[test]
    fn recovers_by_sack_under_the_default() {
        // 1 % loss, 1 KiB messages, at most 4 outstanding (the suite's
        // `rd_1KiB_loss1` shape): losses are repaired by SACK-driven fast
        // retransmit, not by waiting out the timer.
        let fab = Fabric::new(WireConfig::with_loss(0.01, 31));
        let (a, b) = pair(&fab);
        let n = 3_000u32;
        let (credit_tx, credit_rx) = std::sync::mpsc::channel::<()>();
        let flushed = AtomicBool::new(false);
        let (a, dst, flushed) = (&a, b.local_addr(), &flushed);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    // Wait for credit inside calls on the conduit: its ACKs
                    // and timers run only there.
                    while i >= 4 && credit_rx.try_recv().is_err() {
                        let _ = a.flush(Duration::from_millis(1));
                    }
                    let mut msg = vec![0u8; 1024];
                    msg[..4].copy_from_slice(&i.to_be_bytes());
                    a.send_to(dst, Bytes::from(msg).into()).unwrap();
                }
                let r = a.flush(Duration::from_secs(10));
                flushed.store(true, Ordering::Release);
                r.unwrap();
            });
            for i in 0..n {
                let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(data.len(), 1024);
                assert_eq!(u32::from_be_bytes(data[..4].try_into().unwrap()), i);
                let _ = credit_tx.send(());
            }
            serve_until(&b, || flushed.load(Ordering::Acquire));
        });
        assert_eq!(
            b.recv_from(Some(Duration::from_millis(50))).unwrap_err(),
            NetError::Timeout,
            "a message was delivered twice"
        );
        let snap = fab.telemetry().snapshot();
        let fast = snap.get("cc.fast_retransmits").unwrap_or(0);
        let rto = snap.get("cc.rto_fired").unwrap_or(0);
        assert!(fast > rto, "fast retransmits {fast} vs RTOs fired {rto}");
    }

    #[test]
    fn dead_peer_resets_within_the_legacy_budget() {
        // 150 retries under the default 20 ms RTO ceiling: ~3 s, as under
        // the legacy fixed timer.
        let fab = Fabric::loopback();
        let a = RdConduit::bind(&fab, Addr::new(0, 330), RdConfig::default()).unwrap();
        a.send_to(Addr::new(9, 9), Bytes::from_static(b"void").into())
            .unwrap();
        let t0 = Instant::now();
        assert_eq!(
            a.flush(Duration::from_secs(10)).unwrap_err(),
            NetError::Reset
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "reset took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn flush_waits_for_acks() {
        let fab = Fabric::new(WireConfig::with_loss(0.05, 5));
        let (a, b) = pair(&fab);
        let flushed = AtomicBool::new(false);
        let mut got = std::thread::scope(|s| {
            // The receiver drives its conduit, keeping what arrives, until
            // the sender's flush returns.
            let rx = s.spawn(|| {
                let mut got = Vec::new();
                while !flushed.load(Ordering::Acquire) {
                    if let Ok((_, data)) = b.recv_from(Some(Duration::from_millis(1))) {
                        got.push(data[0]);
                    }
                }
                got
            });
            for i in 0..50u8 {
                a.send_to(b.local_addr(), Bytes::from(vec![i]).into())
                    .unwrap();
            }
            let r = a.flush(Duration::from_secs(10));
            flushed.store(true, Ordering::Release);
            r.unwrap();
            rx.join().unwrap()
        });
        // All 50 must now be deliverable without further retransmission:
        // the rest come out of non-blocking polls, the sender idle.
        while let Ok((_, data)) = b.recv_from(Some(Duration::ZERO)) {
            got.push(data[0]);
        }
        assert_eq!(got, (0..50u8).collect::<Vec<_>>());
    }

    #[test]
    fn large_message_roundtrip() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let payload: Vec<u8> = (0..60_000u32).map(|i| (i % 247) as u8).collect();
        a.send_to(b.local_addr(), Bytes::from(payload.clone()).into())
            .unwrap();
        let (_, data) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&data[..], &payload[..]);
    }

    #[test]
    fn oversized_rejected() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let too_big = vec![0u8; a.max_datagram() + 1];
        assert!(matches!(
            a.send_to(b.local_addr(), Bytes::from(too_big).into()),
            Err(NetError::TooBig { .. })
        ));
    }

    #[test]
    fn bidirectional_flows_independent() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        a.send_to(b.local_addr(), Bytes::from_static(b"a->b").into())
            .unwrap();
        b.send_to(a.local_addr(), Bytes::from_static(b"b->a").into())
            .unwrap();
        let (_, d1) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
        let (_, d2) = a.recv_from(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&d1[..], b"a->b");
        assert_eq!(&d2[..], b"b->a");
    }

    #[test]
    fn recv_timeout() {
        let fab = Fabric::loopback();
        let (_a, b) = pair(&fab);
        assert_eq!(
            b.recv_from(Some(Duration::from_millis(20))).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn flush_alone_retransmits_a_lost_tail() {
        // The sender's only call after its last `send_to` is `flush`, and
        // the first transmission of that last message is lost: no later
        // message SACKs past it, so only the sender's timer recovers it,
        // and that timer runs inside `flush`.
        let fab = Fabric::loopback();
        let n = 20u32;
        // Partition windows count the sender's wire packets; small RD
        // messages are one packet each, so packet n-1 is message n-1.
        let mut plan = FaultPlan::quiet(1);
        plan.partitions.push(PartitionWindow {
            start: u64::from(n) - 1,
            end: u64::from(n),
        });
        fab.install_fault_plan(plan);
        let (a, b) = pair(&fab);
        let flushed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()).into())
                        .unwrap();
                }
                let r = a.flush(Duration::from_secs(10));
                flushed.store(true, Ordering::Release);
                r.unwrap();
            });
            for i in 0..n {
                let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
            }
            serve_until(&b, || flushed.load(Ordering::Acquire));
        });
        // The plan partitions every link alike; the sender's link lost only
        // that one packet.
        let lost: Vec<u64> = fab
            .fault_trace()
            .iter()
            .filter(|e| e.src == a.local_addr())
            .map(|e| e.pkt)
            .collect();
        assert_eq!(lost, [u64::from(n) - 1]);
        let snap = fab.telemetry().snapshot();
        assert!(snap.get("simnet.rdgram.retransmits").unwrap_or(0) >= 1);
    }

    #[test]
    fn drive_step_changes_hands_in_both_directions() {
        // Window 2 under 5 % loss: each conduit's sender keeps blocking on
        // its window while another thread sits in `recv_from` on the same
        // conduit, so the drive step passes between them over and over.
        let fab = Fabric::new(WireConfig::with_loss(0.05, 43));
        let cfg = RdConfig {
            window: 2,
            ..RdConfig::default()
        };
        let (a, b) = pair_with(&fab, cfg);
        let n = 300u32;
        let flushed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for (tx, rx) in [(&a, &b), (&b, &a)] {
                let flushed = &flushed;
                s.spawn(move || {
                    for i in 0..n {
                        tx.send_to(
                            rx.local_addr(),
                            Bytes::from(i.to_be_bytes().to_vec()).into(),
                        )
                        .unwrap();
                    }
                    let r = tx.flush(Duration::from_secs(10));
                    flushed.fetch_add(1, Ordering::AcqRel);
                    r.unwrap();
                });
                s.spawn(move || {
                    for i in 0..n {
                        let (src, data) = rx.recv_from(Some(Duration::from_secs(10))).unwrap();
                        assert_eq!(src, tx.local_addr());
                        assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
                    }
                    serve_until(rx, || flushed.load(Ordering::Acquire) == 2);
                });
            }
        });
    }

    #[test]
    fn a_retransmission_is_due_at_its_deadline_and_not_before() {
        // Synthetic time: the test ends drive steps at times it makes up,
        // so the timer is checked to the microsecond without sleeping.
        let fab = Fabric::loopback();
        let a = RdConduit::bind(&fab, Addr::new(0, 340), RdConfig::default()).unwrap();
        let void = Addr::new(9, 9);
        a.send_to(void, Bytes::from_static(b"void").into()).unwrap();
        a.drv.with_locked(|rd, st| {
            let tx = &st.tx[&void];
            let deadline = tx.engine.rto_deadline().expect("armed by the send");
            let frame = tx.payloads[&0].clone();
            assert!(st.outbox.is_empty(), "the send's release took its frame");
            rd.after_step(st, Ok(()), deadline - Duration::from_micros(1));
            assert!(st.outbox.is_empty(), "retransmitted before the deadline");
            rd.after_step(st, Ok(()), deadline);
            assert_eq!(st.outbox, [(void, frame)], "one retransmission");
        });
    }

    #[test]
    fn the_retransmit_deadline_is_published_until_the_ack() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        assert!(!a.retransmit_armed());
        assert_eq!(a.retransmit_due_in(), None);
        a.send_to(b.local_addr(), Bytes::from_static(b"x").into())
            .unwrap();
        assert!(a.retransmit_armed(), "the send armed its timer");
        let due = a.retransmit_due_in().expect("armed");
        assert!(due <= RdConfig::default().rto, "due in {due:?}");
        // The receiver's drive step ACKs, and the sender's takes the ACK.
        b.recv_from(Some(Duration::ZERO)).unwrap();
        assert_eq!(
            a.recv_from(Some(Duration::ZERO)).unwrap_err(),
            NetError::Timeout
        );
        assert!(!a.retransmit_armed(), "the ACK disarmed the timer");
        assert_eq!(a.retransmit_due_in(), None);
    }

    #[test]
    fn a_flush_that_delivers_runs_the_arrival_notifier() {
        // A flush's drive step takes the peer's data along with the ACK
        // it waits for. No receive call is there to take the message, so
        // the notifier must hear of it.
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        a.set_notify(Some(Arc::new(move |_| {
            counted.fetch_add(1, Ordering::Relaxed);
        })));
        a.send_to(b.local_addr(), Bytes::from_static(b"to b").into())
            .unwrap();
        b.send_to(a.local_addr(), Bytes::from_static(b"to a").into())
            .unwrap();
        b.recv_from(Some(Duration::ZERO)).unwrap();
        // Two arrivals at `a`: the data and the ACK.
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        a.flush(Duration::from_secs(1)).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(a.rx_backlog(), 1, "the message waits in order");
        assert!(a.can_recv());
        let (_, data) = a.recv_from(Some(Duration::ZERO)).unwrap();
        assert_eq!(&data[..], b"to a");
        assert!(!a.can_recv());
    }

    #[test]
    fn zero_timeout_recv_takes_a_delivered_message() {
        // The poll path (`recv_from(Some(ZERO))`) runs one non-blocking
        // drive step: a datagram already in the delivery ring comes out.
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        a.send_to(b.local_addr(), Bytes::from_static(b"polled").into())
            .unwrap();
        assert_eq!(b.rx_backlog(), 1, "the loopback fabric delivers on send");
        let (src, data) = b.recv_from(Some(Duration::ZERO)).unwrap();
        assert_eq!(src, a.local_addr());
        assert_eq!(&data[..], b"polled");
        assert_eq!(
            b.recv_from(Some(Duration::ZERO)).unwrap_err(),
            NetError::Timeout
        );
    }

    #[test]
    fn no_frame_leaves_under_the_state_lock() {
        // On a latency-free fabric the arrival notifier runs in the sending
        // thread, right after the frame lands, so it sees whether the
        // sender still holds its state lock. Data and ACKs both ways.
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let (a, b) = (Arc::new(a), Arc::new(b));
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
                tx.send_to(rx.local_addr(), Bytes::from(vec![i]).into())
                    .unwrap();
                // One zero-wait drive step takes the data (and any ACK
                // queued before it) and sends this side's ACK.
                let (src, data) = rx.recv_from(Some(Duration::ZERO)).unwrap();
                assert_eq!((src, &data[..]), (tx.local_addr(), &[i][..]));
            }
        }
        // 6 data frames and their 6 ACKs.
        assert_eq!(sent.load(Ordering::Relaxed), 12);
        assert_eq!(
            under_lock.load(Ordering::Relaxed),
            0,
            "frames sent while the sender held its state lock"
        );
    }

    #[test]
    fn concurrent_senders_deliver_each_message_once_in_sequence() {
        // Two threads share one conduit, so frames of two releases may
        // interleave on the wire, and 2 % loss reorders them further. The
        // receiver still delivers every message once, each thread's in
        // the order that thread sent them.
        let fab = Fabric::new(WireConfig::with_loss(0.02, 59));
        let (a, b) = pair(&fab);
        let n = 2_000u32;
        let flushed = AtomicUsize::new(0);
        let next = std::thread::scope(|s| {
            for t in 0..2u32 {
                let (a, dst, flushed) = (&a, b.local_addr(), &flushed);
                s.spawn(move || {
                    for i in 0..n {
                        let mut msg = t.to_be_bytes().to_vec();
                        msg.extend_from_slice(&i.to_be_bytes());
                        a.send_to(dst, Bytes::from(msg).into()).unwrap();
                    }
                    let r = a.flush(Duration::from_secs(10));
                    flushed.fetch_add(1, Ordering::AcqRel);
                    r.unwrap();
                });
            }
            let mut next = [0u32; 2];
            for _ in 0..2 * n {
                let (src, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(src, a.local_addr());
                let t = u32::from_be_bytes(data[..4].try_into().unwrap()) as usize;
                let i = u32::from_be_bytes(data[4..8].try_into().unwrap());
                assert_eq!(i, next[t], "thread {t}'s messages out of sequence");
                next[t] += 1;
            }
            // Anything delivered after the 4 000th is a duplicate.
            serve_until(&b, || flushed.load(Ordering::Acquire) == 2);
            next
        });
        assert_eq!(next, [n, n]);
    }
}
