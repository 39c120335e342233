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
//! **Progress is the owner's.** The conduit has no thread of its own. A
//! call that has to wait on the conduit — [`RdConduit::recv_from`], a
//! [`RdConduit::send_to`] blocked on a full window, or
//! [`RdConduit::flush`] — runs the protocol: it waits on the
//! [`DgramConduit`] for at most the smaller of its own timeout and the
//! next retransmission deadline, feeds every queued datagram through the
//! protocol under one lock scope, and sweeps the timers. So a conduit
//! makes progress only while its owner is inside a call on it, as with an
//! RNIC's progress engine or a poll-mode QP. A threaded RD QP's receive
//! loop is the driver; a poll-mode QP drives it from `progress`. A sender
//! that stops calling must [`flush`](RdConduit::flush) to get its tail
//! retransmitted, and its peer must still be receiving to acknowledge it.
//!
//! Wakes: one caller drives at a time (leader/follower). The first
//! waiter sets `St::driving`; the others sleep on the one condvar. The
//! driver raises `St::wake` when it queued a message, opened a window
//! (any ACK) or set an error, and notifies after it has released the
//! state lock — before its next wait on the datagram conduit, or when it
//! returns. A driver that returns also wakes the sleepers so that one of
//! them takes over. Nothing notifies while the state lock is held.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use iwarp_cc::{CcAlgo, RecoveryConfig, RecoveryEngine};
use iwarp_telemetry::{EndpointId, EventKind, Telemetry};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::dgram::DgramConduit;
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
    /// seq → payload for everything the engine may still ask us to
    /// retransmit. Entries drop as soon as the peer holds the message
    /// (cumulative or selective ACK).
    payloads: BTreeMap<u64, Bytes>,
}

struct PeerRx {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, Bytes>,
}

struct St {
    tx: HashMap<Addr, PeerTx>,
    rx: HashMap<Addr, PeerRx>,
    ready: VecDeque<(Addr, Bytes)>,
    err: Option<NetError>,
    /// A caller holds the drive step (see the module doc, "Wakes").
    driving: bool,
    /// The driver queued a message, took an ACK or set an error since
    /// it last notified.
    wake: bool,
    /// Callers asleep on `RdConduit::cv`; nobody is notified when zero.
    sleepers: usize,
}

/// Reliable datagram endpoint: unreliable-datagram ergonomics with
/// TCP-grade delivery guarantees per peer.
pub struct RdConduit {
    dg: DgramConduit,
    cfg: RdConfig,
    /// Resolved SACK bitmap width (validated at bind).
    sack_words: usize,
    /// `sack_words * 64`: how far past `rcv_nxt` the receiver will hold
    /// out-of-order messages (anything farther is undescribable in an
    /// ACK, so it is dropped and recovered by retransmission).
    horizon: u64,
    /// SACK-gap fast retransmit + adaptive window are only active off
    /// the `Fixed` baseline.
    adaptive: bool,
    st: Mutex<St>,
    /// Where callers that are not driving sleep.
    cv: Condvar,
    tel: Telemetry,
}

impl RdConduit {
    fn send_data(&self, dst: Addr, seq: u64, payload: &Bytes) {
        let mut b = BytesMut::with_capacity(DATA_HEADER + payload.len());
        b.put_u8(TYPE_DATA);
        b.put_u64(seq);
        b.extend_from_slice(payload);
        let _ = self.dg.send_to(dst, b.freeze());
    }

    fn send_ack(&self, dst: Addr, st: &St) {
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
        let _ = self.dg.send_to(dst, b.freeze());
    }

    fn retransmit(&self, dst: Addr, seq: u64, payload: &Bytes) {
        self.tel.simnet().rdgram_retransmits.inc();
        let local = self.dg.local_addr();
        self.tel.trace(
            EndpointId::new(local.node.0, local.port),
            EventKind::Retransmit,
            payload.len() as u64,
            seq,
        );
        self.send_data(dst, seq, payload);
    }

    fn on_datagram(&self, st: &mut St, src: Addr, data: &Bytes) {
        if data.is_empty() {
            return;
        }
        match data[0] {
            TYPE_DATA if data.len() >= DATA_HEADER => {
                let seq = u64::from_be_bytes(data[1..9].try_into().expect("len checked"));
                let payload = data.slice(DATA_HEADER..);
                let rx = st.rx.entry(src).or_insert(PeerRx {
                    rcv_nxt: 0,
                    ooo: BTreeMap::new(),
                });
                if seq == rx.rcv_nxt {
                    rx.rcv_nxt += 1;
                    st.ready.push_back((src, payload));
                    self.tel.simnet().rdgram_rx_msgs.inc();
                    // Drain contiguous out-of-order messages.
                    let rx = st.rx.get_mut(&src).expect("present");
                    while let Some(p) = rx.ooo.remove(&rx.rcv_nxt) {
                        rx.rcv_nxt += 1;
                        st.ready.push_back((src, p));
                        self.tel.simnet().rdgram_rx_msgs.inc();
                    }
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
                let t = tx.engine.now();
                if cum > tx.engine.una() {
                    tx.engine.on_cum_ack(t, cum);
                    // Everything below cum is delivered; forget payloads.
                    tx.payloads = tx.payloads.split_off(&cum);
                }
                for w in 0..words {
                    let off = ACK_PREFIX + 8 * w;
                    let word =
                        u64::from_be_bytes(data[off..off + 8].try_into().expect("len checked"));
                    if word == 0 {
                        continue;
                    }
                    for bit in 0..64u64 {
                        if word & (1 << bit) != 0 {
                            let seq = cum + 64 * w as u64 + bit;
                            tx.engine.on_sack_seq(t, seq);
                            tx.payloads.remove(&seq);
                        }
                    }
                }
                if self.adaptive {
                    // A message with three later messages SACKed past it
                    // is lost; the engine fast-queues it. (The Fixed
                    // baseline stays timer-driven, like the legacy
                    // implementation.)
                    tx.engine.detect_losses(t);
                }
                st.wake = true;
            }
            _ => {}
        }
    }

    /// Checks per-peer retransmission timers, drains the retransmit
    /// queues, and surfaces retry exhaustion as a connection reset.
    fn sweep_timers(&self, st: &mut St) {
        let mut dead = false;
        for (&peer, tx) in &mut st.tx {
            let t = tx.engine.now();
            let ev = tx.engine.sweep(t);
            if ev.dead {
                dead = true;
                break;
            }
            while let Some((seq, _len)) = tx.engine.pop_rtx(t) {
                if let Some(payload) = tx.payloads.get(&seq) {
                    let payload = payload.clone();
                    self.retransmit(peer, seq, &payload);
                }
            }
            if tx.engine.is_dead() {
                dead = true;
                break;
            }
        }
        if dead {
            st.err = Some(NetError::Reset);
            st.wake = true;
        }
    }

    /// How long a drive step may wait on the datagram conduit before a
    /// timer could be due. Capped, so a timer armed by a concurrent send
    /// is seen within `IDLE`.
    fn next_deadline_in(&self, st: &St) -> Duration {
        const IDLE: Duration = Duration::from_millis(5);
        let mut wait = IDLE;
        for tx in st.tx.values() {
            if let Some(d) = tx.engine.rto_deadline() {
                wait = wait.min(d.saturating_sub(tx.engine.now()));
            }
        }
        wait.max(Duration::from_micros(200))
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
        Ok(Self {
            dg,
            sack_words,
            horizon: sack_words as u64 * 64,
            adaptive: cfg.cc != CcAlgo::Fixed,
            cfg,
            tel,
            st: Mutex::new(St {
                tx: HashMap::new(),
                rx: HashMap::new(),
                ready: VecDeque::new(),
                err: None,
                driving: false,
                wake: false,
                sleepers: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Local address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.dg.local_addr()
    }

    /// The fabric this conduit is bound on.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        self.dg.fabric()
    }

    /// Wire packets waiting in the underlying delivery ring; see
    /// [`DgramConduit::rx_backlog`].
    #[must_use]
    pub fn rx_backlog(&self) -> usize {
        self.dg.rx_backlog()
    }

    /// Largest message this conduit accepts (one datagram's worth).
    #[must_use]
    pub fn max_datagram(&self) -> usize {
        self.dg.max_datagram() - DATA_HEADER
    }

    /// Sends `payload` reliably to `dst`; blocks while the per-peer send
    /// window (congestion window ∩ configured window) is full, driving
    /// the conduit meanwhile. Returns once the message is queued and
    /// transmitted (not once acknowledged).
    pub fn send_to(&self, dst: Addr, payload: Bytes) -> NetResult<()> {
        if payload.len() > self.max_datagram() {
            return Err(NetError::TooBig {
                len: payload.len(),
                max: self.max_datagram(),
            });
        }
        let window = self.cfg.window as u64;
        self.wait_until(None, |st| {
            if let Some(e) = &st.err {
                return Some(Err(e.clone()));
            }
            let tx = st.tx.entry(dst).or_insert_with(|| PeerTx {
                engine: RecoveryEngine::new(self.cfg.recovery_config()).with_telemetry(&self.tel),
                payloads: BTreeMap::new(),
            });
            let t = tx.engine.now();
            if !tx.engine.can_send(1, window) {
                return None;
            }
            let seq = tx.engine.on_send(t, 1);
            tx.payloads.insert(seq, payload.clone());
            self.tel.simnet().rdgram_tx_msgs.inc();
            self.send_data(dst, seq, &payload);
            Some(Ok(()))
        })
    }

    /// Receives the next in-order message from any peer, driving the
    /// conduit while it waits. A zero timeout runs one non-blocking drive
    /// step (unless another caller is driving) before reporting
    /// [`NetError::Timeout`].
    pub fn recv_from(&self, timeout: Option<Duration>) -> NetResult<(Addr, Bytes)> {
        let deadline = timeout.map(|t| Instant::now() + t);
        self.wait_until(deadline, |st| match st.ready.pop_front() {
            Some(item) => Some(Ok(item)),
            None => st.err.clone().map(Err),
        })
    }

    /// Drives the conduit until every queued message to every peer is
    /// acknowledged.
    pub fn flush(&self, timeout: Duration) -> NetResult<()> {
        self.wait_until(Some(Instant::now() + timeout), |st| {
            if st.tx.values().all(|t| t.engine.outstanding() == 0) {
                return Some(Ok(()));
            }
            st.err.clone().map(Err)
        })
    }

    /// Runs `poll` under the state lock until it yields or `deadline`
    /// (`None`: never) passes. Between polls the caller drives the conduit
    /// if no other caller does, and sleeps on `cv` otherwise. The first
    /// iteration always polls, and a caller that took the drive step polls
    /// after at least one step, so a zero budget still drains once.
    fn wait_until<T>(
        &self,
        deadline: Option<Instant>,
        mut poll: impl FnMut(&mut St) -> Option<NetResult<T>>,
    ) -> NetResult<T> {
        let mut st = self.st.lock();
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
                None => self.cv.wait(&mut st),
                Some(left) => {
                    self.cv.wait_for(&mut st, left);
                }
            }
            st.sleepers -= 1;
        };
        // Release step: a returning driver hands the drive step on.
        st.driving &= !driver;
        let notify = (std::mem::take(&mut st.wake) || driver) && st.sleepers > 0;
        drop(st);
        if notify {
            self.cv.notify_all();
        }
        out
    }

    /// One drive step, by the caller holding `St::driving`: notifies the
    /// wakes the last step raised, waits on the datagram conduit for at
    /// most `left` and the next retransmission deadline (the lock
    /// released), then feeds every queued datagram through the protocol
    /// and sweeps the timers under one lock scope.
    fn step<'a>(
        &'a self,
        mut st: MutexGuard<'a, St>,
        left: Option<Duration>,
    ) -> MutexGuard<'a, St> {
        let wait = self.next_deadline_in(&st);
        let wait = left.map_or(wait, |left| left.min(wait));
        let notify = std::mem::take(&mut st.wake) && st.sleepers > 0;
        drop(st);
        if notify {
            self.cv.notify_all();
        }
        let got = self.dg.recv_from(Some(wait));
        let mut st = self.st.lock();
        match got {
            Ok((src, data)) => {
                self.on_datagram(&mut st, src, &data);
                while let Ok((src, data)) = self.dg.try_recv_from() {
                    self.on_datagram(&mut st, src, &data);
                }
            }
            Err(NetError::Timeout) => {}
            Err(e) => {
                st.err = Some(e);
                st.wake = true;
                return st;
            }
        }
        self.sweep_timers(&mut st);
        st
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
        a.send_to(b.local_addr(), Bytes::from_static(b"reliable")).unwrap();
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
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
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
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
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
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
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
        let zero_window = RdConfig { window: 0, ..RdConfig::default() };
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
            RdConfig { window: 100, ..RdConfig::default() }.resolve_sack_words().unwrap(),
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
        a.send_to(Addr::new(9, 9), Bytes::from_static(b"void")).unwrap();
        let err = a.flush(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, NetError::Reset);
        // Subsequent operations observe the reset too.
        assert_eq!(
            a.send_to(Addr::new(9, 9), Bytes::from_static(b"x")).unwrap_err(),
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
                    a.send_to(dst, Bytes::from(msg)).unwrap();
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
        a.send_to(Addr::new(9, 9), Bytes::from_static(b"void")).unwrap();
        let t0 = Instant::now();
        assert_eq!(a.flush(Duration::from_secs(10)).unwrap_err(), NetError::Reset);
        assert!(t0.elapsed() < Duration::from_secs(5), "reset took {:?}", t0.elapsed());
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
                a.send_to(b.local_addr(), Bytes::from(vec![i])).unwrap();
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
        a.send_to(b.local_addr(), Bytes::from(payload.clone())).unwrap();
        let (_, data) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
        assert_eq!(&data[..], &payload[..]);
    }

    #[test]
    fn oversized_rejected() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        let too_big = vec![0u8; a.max_datagram() + 1];
        assert!(matches!(
            a.send_to(b.local_addr(), Bytes::from(too_big)),
            Err(NetError::TooBig { .. })
        ));
    }

    #[test]
    fn bidirectional_flows_independent() {
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        a.send_to(b.local_addr(), Bytes::from_static(b"a->b")).unwrap();
        b.send_to(a.local_addr(), Bytes::from_static(b"b->a")).unwrap();
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
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
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
                        tx.send_to(rx.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
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
    fn zero_timeout_recv_takes_a_delivered_message() {
        // The poll path (`recv_from(Some(ZERO))`) runs one non-blocking
        // drive step: a datagram already in the delivery ring comes out.
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        a.send_to(b.local_addr(), Bytes::from_static(b"polled"))
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
}
