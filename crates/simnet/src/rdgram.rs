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

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{BufMut, Bytes, BytesMut};
use iwarp_cc::{CcAlgo, RecoveryConfig, RecoveryEngine};
use iwarp_telemetry::{Counter, EndpointId, EventKind, Telemetry};
use parking_lot::{Condvar, Mutex};

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

/// Configuration of a reliable-datagram endpoint.
#[derive(Clone, Debug)]
pub struct RdConfig {
    /// Maximum unacknowledged *span* per peer: `next_seq - oldest_unacked`
    /// never exceeds this, which keeps every outstanding sequence inside
    /// the peer's SACK-bitmap horizon.
    pub window: usize,
    /// SACK bitmap width in u64 words, or `None` to derive the minimum
    /// covering `window` (`ceil(window / 64)`). Explicit values narrower
    /// than the window are rejected at bind time — a sender could
    /// otherwise outrun what the ACKs can describe.
    pub sack_words: Option<usize>,
    /// Initial retransmission timeout. Under [`CcAlgo::Fixed`] this is
    /// the constant timer (legacy behavior); otherwise the RFC-6298
    /// estimator adapts from here.
    pub rto: Duration,
    /// RTO floor for the adaptive estimator (ignored under `Fixed`).
    pub min_rto: Duration,
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
    /// Spread sends over the smoothed RTT instead of bursting the whole
    /// window (adaptive algorithms only).
    pub paced: bool,
}

impl Default for RdConfig {
    fn default() -> Self {
        Self {
            window: 64,
            sack_words: None,
            rto: Duration::from_millis(20),
            min_rto: Duration::from_millis(2),
            max_rto: Duration::from_millis(20),
            max_retries: 150,
            cc: CcAlgo::NewReno,
            paced: false,
        }
    }
}

impl RdConfig {
    /// Resolves the SACK bitmap width in words, validating that the
    /// config is self-consistent (the bitmap must cover the window, and
    /// both must fit the wire format).
    pub fn resolve_sack_words(&self) -> NetResult<usize> {
        if self.window == 0 {
            return Err(NetError::Protocol("rd window must be at least 1"));
        }
        let derived = self.window.div_ceil(64);
        let words = match self.sack_words {
            None => derived,
            Some(0) => return Err(NetError::Protocol("rd sack bitmap must be at least 1 word")),
            Some(w) if w * 64 < self.window => {
                return Err(NetError::Protocol(
                    "rd sack bitmap narrower than window: unacked messages would fall outside \
                     what ACKs can describe",
                ))
            }
            Some(w) => w,
        };
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
            min_rto: if fixed { self.rto } else { self.min_rto },
            max_rto: if fixed { self.rto } else { self.max_rto },
            backoff: !fixed,
            max_retries: self.max_retries,
            dup_threshold: 3,
            rtx_queue_cap: self.window.max(64),
            paced: self.paced,
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
    shutdown: bool,
}

/// Telemetry handles resolved once at bind time.
struct RdTel {
    tel: Telemetry,
    tx_msgs: Counter,
    rx_msgs: Counter,
    retransmits: Counter,
    acks_tx: Counter,
}

struct Inner {
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
    readable: Condvar,
    writable: Condvar,
    tel: RdTel,
}

impl Inner {
    fn send_data(&self, dst: Addr, seq: u64, payload: &Bytes) {
        let mut b = BytesMut::with_capacity(DATA_HEADER + payload.len());
        b.put_u8(TYPE_DATA);
        b.put_u64(seq);
        b.extend_from_slice(payload);
        let _ = self.dg.send_to(dst, b.freeze());
    }

    fn send_ack(&self, dst: Addr, st: &St) {
        let Some(rx) = st.rx.get(&dst) else { return };
        let mut bitmap = vec![0u64; self.sack_words];
        for (&seq, _) in rx.ooo.range(rx.rcv_nxt..rx.rcv_nxt + self.horizon) {
            let d = (seq - rx.rcv_nxt) as usize;
            bitmap[d / 64] |= 1 << (d % 64);
        }
        let mut b = BytesMut::with_capacity(ACK_PREFIX + 8 * self.sack_words);
        b.put_u8(TYPE_ACK);
        b.put_u64(rx.rcv_nxt);
        b.put_u8(self.sack_words as u8);
        for word in bitmap {
            b.put_u64(word);
        }
        self.tel.acks_tx.inc();
        let _ = self.dg.send_to(dst, b.freeze());
    }

    fn retransmit(&self, dst: Addr, seq: u64, payload: &Bytes) {
        self.tel.retransmits.inc();
        if self.tel.tel.tracer().armed() {
            let local = self.dg.local_addr();
            self.tel.tel.tracer().record(
                self.tel.tel.now_nanos(),
                EndpointId::new(local.node.0, local.port),
                EventKind::Retransmit,
                payload.len() as u64,
                seq,
            );
        }
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
                    self.tel.rx_msgs.inc();
                    // Drain contiguous out-of-order messages.
                    let rx = st.rx.get_mut(&src).expect("present");
                    while let Some(p) = rx.ooo.remove(&rx.rcv_nxt) {
                        rx.rcv_nxt += 1;
                        st.ready.push_back((src, p));
                        self.tel.rx_msgs.inc();
                    }
                    self.readable.notify_all();
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
                self.writable.notify_all();
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
            self.readable.notify_all();
            self.writable.notify_all();
        }
    }

    /// How long the IO thread may sleep in `recv_from` before a timer
    /// could be due.
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

/// Reliable datagram endpoint: unreliable-datagram ergonomics with
/// TCP-grade delivery guarantees per peer.
pub struct RdConduit {
    inner: Arc<Inner>,
    io: Option<std::thread::JoinHandle<()>>,
}

impl RdConduit {
    /// Binds a reliable-datagram conduit at `addr`.
    ///
    /// Fails with [`NetError::Protocol`] when the config's window and
    /// SACK bitmap width are inconsistent (see
    /// [`RdConfig::resolve_sack_words`]).
    pub fn bind(fabric: &Fabric, addr: Addr, cfg: RdConfig) -> NetResult<Self> {
        Self::wrap(DgramConduit::bind(fabric, addr)?, cfg)
    }

    /// Binds at an ephemeral port on `node`.
    pub fn bind_ephemeral(fabric: &Fabric, node: NodeId, cfg: RdConfig) -> NetResult<Self> {
        Self::wrap(DgramConduit::bind_ephemeral(fabric, node)?, cfg)
    }

    fn wrap(dg: DgramConduit, cfg: RdConfig) -> NetResult<Self> {
        let sack_words = cfg.resolve_sack_words()?;
        let t = dg.fabric().telemetry().clone();
        let tel = RdTel {
            tx_msgs: t.counter("simnet.rdgram.tx_msgs"),
            rx_msgs: t.counter("simnet.rdgram.rx_msgs"),
            retransmits: t.counter("simnet.rdgram.retransmits"),
            acks_tx: t.counter("simnet.rdgram.acks_tx"),
            tel: t,
        };
        let inner = Arc::new(Inner {
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
                shutdown: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
        });
        let io_inner = Arc::clone(&inner);
        let io = std::thread::Builder::new()
            .name("rd-io".into())
            .spawn(move || {
                loop {
                    let wait = {
                        let st = io_inner.st.lock();
                        if st.shutdown {
                            return;
                        }
                        io_inner.next_deadline_in(&st)
                    };
                    let got = io_inner.dg.recv_from(Some(wait));
                    let mut st = io_inner.st.lock();
                    if st.shutdown {
                        return;
                    }
                    match got {
                        Ok((src, data)) => {
                            io_inner.on_datagram(&mut st, src, &data);
                            while let Ok((src, data)) = io_inner.dg.try_recv_from() {
                                io_inner.on_datagram(&mut st, src, &data);
                            }
                        }
                        Err(NetError::Timeout) => {}
                        Err(e) => {
                            st.err = Some(e);
                            io_inner.readable.notify_all();
                            io_inner.writable.notify_all();
                            return;
                        }
                    }
                    io_inner.sweep_timers(&mut st);
                }
            })
            .expect("spawn rd io thread");
        Ok(Self {
            inner,
            io: Some(io),
        })
    }

    /// Local address.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.dg.local_addr()
    }

    /// The fabric this conduit is bound on.
    #[must_use]
    pub fn fabric(&self) -> &Fabric {
        self.inner.dg.fabric()
    }

    /// Wire packets waiting in the underlying delivery ring; see
    /// [`DgramConduit::rx_backlog`].
    #[must_use]
    pub fn rx_backlog(&self) -> usize {
        self.inner.dg.rx_backlog()
    }

    /// Largest message this conduit accepts (one datagram's worth).
    #[must_use]
    pub fn max_datagram(&self) -> usize {
        self.inner.dg.max_datagram() - DATA_HEADER
    }

    /// Sends `payload` reliably to `dst`; blocks while the per-peer send
    /// window (congestion window ∩ configured window) is full. Returns
    /// once the message is queued and transmitted (not once
    /// acknowledged).
    pub fn send_to(&self, dst: Addr, payload: Bytes) -> NetResult<()> {
        if payload.len() > self.max_datagram() {
            return Err(NetError::TooBig {
                len: payload.len(),
                max: self.max_datagram(),
            });
        }
        let inner = &self.inner;
        let window = inner.cfg.window as u64;
        let mut st = inner.st.lock();
        loop {
            if let Some(e) = &st.err {
                return Err(e.clone());
            }
            let tel = &inner.tel;
            let tx = st.tx.entry(dst).or_insert_with(|| PeerTx {
                engine: RecoveryEngine::new(inner.cfg.recovery_config())
                    .with_telemetry(&tel.tel),
                payloads: BTreeMap::new(),
            });
            let t = tx.engine.now();
            if tx.engine.can_send(1, window) {
                if let Some(hold) = tx.engine.pace_delay(t) {
                    inner.writable.wait_for(&mut st, hold);
                    continue;
                }
                let seq = tx.engine.on_send(t, 1);
                tx.payloads.insert(seq, payload.clone());
                inner.tel.tx_msgs.inc();
                inner.send_data(dst, seq, &payload);
                return Ok(());
            }
            inner.writable.wait(&mut st);
        }
    }

    /// Receives the next in-order message from any peer.
    pub fn recv_from(&self, timeout: Option<Duration>) -> NetResult<(Addr, Bytes)> {
        let inner = &self.inner;
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut st = inner.st.lock();
        loop {
            if let Some(item) = st.ready.pop_front() {
                return Ok(item);
            }
            if let Some(e) = &st.err {
                return Err(e.clone());
            }
            match deadline {
                None => {
                    inner.readable.wait(&mut st);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(NetError::Timeout);
                    }
                    inner.readable.wait_for(&mut st, d - now);
                }
            }
        }
    }

    /// Blocks until every queued message to every peer is acknowledged.
    pub fn flush(&self, timeout: Duration) -> NetResult<()> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.st.lock();
        loop {
            if st.tx.values().all(|t| t.engine.outstanding() == 0) {
                return Ok(());
            }
            if let Some(e) = &st.err {
                return Err(e.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            self.inner.writable.wait_for(&mut st, deadline - now);
        }
    }
}

impl Drop for RdConduit {
    fn drop(&mut self) {
        self.inner.st.lock().shutdown = true;
        if let Some(io) = self.io.take() {
            let _ = io.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireConfig;

    fn pair(fab: &Fabric) -> (RdConduit, RdConduit) {
        pair_with(fab, RdConfig::default())
    }

    fn pair_with(fab: &Fabric, cfg: RdConfig) -> (RdConduit, RdConduit) {
        let a = RdConduit::bind(fab, Addr::new(0, 300), cfg.clone()).unwrap();
        let b = RdConduit::bind(fab, Addr::new(1, 300), cfg).unwrap();
        (a, b)
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
        let fab = Fabric::loopback();
        let (a, b) = pair(&fab);
        for i in 0..200u32 {
            a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        for i in 0..200u32 {
            let (_, data) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
            assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
        }
    }

    #[test]
    fn ordered_delivery_under_loss() {
        // 5% wire loss: the RD layer must still deliver every message,
        // in order, exactly once.
        let fab = Fabric::new(WireConfig::with_loss(0.05, 21));
        let (a, b) = pair(&fab);
        let n = 300u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
                        .unwrap();
                }
            });
            for i in 0..n {
                let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
            }
        });
    }

    #[test]
    fn ordered_delivery_under_loss_adaptive() {
        // Same contract with the adaptive algorithms driving recovery.
        for cc in [CcAlgo::NewReno, CcAlgo::Cubic] {
            let fab = Fabric::new(WireConfig::with_loss(0.05, 22));
            let cfg = RdConfig { cc, ..RdConfig::default() };
            let (a, b) = pair_with(&fab, cfg);
            let n = 300u32;
            std::thread::scope(|s| {
                s.spawn(|| {
                    for i in 0..n {
                        a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
                            .unwrap();
                    }
                });
                for i in 0..n {
                    let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                    assert_eq!(
                        u32::from_be_bytes(data[..].try_into().unwrap()),
                        i,
                        "cc={cc}"
                    );
                }
            });
        }
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
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..n {
                    a.send_to(b.local_addr(), Bytes::from(i.to_be_bytes().to_vec()))
                        .unwrap();
                }
            });
            for i in 0..n {
                let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(u32::from_be_bytes(data[..].try_into().unwrap()), i);
            }
        });
    }

    #[test]
    fn inconsistent_config_rejected() {
        let fab = Fabric::loopback();
        // Bitmap narrower than the window: a sender could outrun ACKs.
        let narrow = RdConfig {
            window: 130,
            sack_words: Some(2),
            ..RdConfig::default()
        };
        assert!(matches!(
            RdConduit::bind(&fab, Addr::new(0, 310), narrow),
            Err(NetError::Protocol(_))
        ));
        let zero_window = RdConfig { window: 0, ..RdConfig::default() };
        assert!(matches!(
            RdConduit::bind(&fab, Addr::new(0, 311), zero_window),
            Err(NetError::Protocol(_))
        ));
        let zero_words = RdConfig { sack_words: Some(0), ..RdConfig::default() };
        assert!(matches!(
            RdConduit::bind(&fab, Addr::new(0, 312), zero_words),
            Err(NetError::Protocol(_))
        ));
        let too_wide = RdConfig {
            window: 60_000,
            ..RdConfig::default()
        };
        assert!(matches!(
            RdConduit::bind(&fab, Addr::new(0, 313), too_wide),
            Err(NetError::Protocol(_))
        ));
        // Derivation: window 100 needs 2 words; explicit wider is fine.
        assert_eq!(
            RdConfig { window: 100, ..RdConfig::default() }.resolve_sack_words().unwrap(),
            2
        );
        let wider = RdConfig {
            window: 10,
            sack_words: Some(3),
            ..RdConfig::default()
        };
        assert_eq!(wider.resolve_sack_words().unwrap(), 3);
        drop(RdConduit::bind(&fab, Addr::new(0, 314), wider).unwrap());
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
        let (a, dst) = (&a, b.local_addr());
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    if i >= 4 {
                        credit_rx.recv().unwrap();
                    }
                    let mut msg = vec![0u8; 1024];
                    msg[..4].copy_from_slice(&i.to_be_bytes());
                    a.send_to(dst, Bytes::from(msg)).unwrap();
                }
            });
            for i in 0..n {
                let (_, data) = b.recv_from(Some(Duration::from_secs(10))).unwrap();
                assert_eq!(data.len(), 1024);
                assert_eq!(u32::from_be_bytes(data[..4].try_into().unwrap()), i);
                let _ = credit_tx.send(());
            }
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
        for i in 0..50u8 {
            a.send_to(b.local_addr(), Bytes::from(vec![i])).unwrap();
        }
        a.flush(Duration::from_secs(10)).unwrap();
        // All 50 must now be deliverable without further retransmission.
        for i in 0..50u8 {
            let (_, data) = b.recv_from(Some(Duration::from_secs(2))).unwrap();
            assert_eq!(data[0], i);
        }
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
}
