//! The datagram queue pair: datagram-iWARP's UD and RD modes.
//!
//! One engine serves both modes — the difference is the conduit underneath
//! ([`simnet::DgramConduit`] for UD, [`simnet::RdConduit`] for RD), chosen
//! at creation by [`crate::device::Device::create_ud_qp`] /
//! [`crate::device::Device::create_rd_qp`].
//!
//! Key departures from connected iWARP, per paper §IV.B:
//!
//! * **no connection**: every send names a [`UdDest`]; every receive
//!   completion reports the source address and QP;
//! * **no MPA**: segments go straight into datagrams with a mandatory
//!   CRC32 trailer;
//! * **loss is not fatal**: CRC failures and drops are counted, buffers
//!   recovered on a TTL, and the QP keeps operating;
//! * **RDMA Write-Record**: the one-sided write whose completion is logged
//!   at the *target*, with partial placement under loss;
//! * **UD RDMA Read** (paper future work, implemented as an extension):
//!   reads complete with `Expired` status if the response is lost.

use std::sync::{Arc, Weak};
use std::thread::Thread;
use std::time::Duration;

use iwarp_telemetry::Telemetry;
use simnet::{Addr, DgramConduit, NetError, RdConduit};

use iwarp_common::memacct::MemScope;
use iwarp_common::sg::SgBytes;

use crate::buf::{MemoryRegion, MrTable};
use crate::cq::Cq;
use crate::error::{IwarpError, IwarpResult};
use crate::hdr::{decode_sg, RdmapOpcode};
use crate::qp::gate::{Driver, EngineGate};
use crate::qp::rx::{Delivery, Ingest, RxCore};
use crate::qp::tx::{TxCore, Verb, Wire};
use crate::qp::QpConfig;
use crate::wr::{RecvWr, SendPayload, SendWr, UdDest};

pub use crate::qp::rx::QpStats;

/// The datagram LLP under a QP: unreliable or reliable datagrams.
pub(crate) enum DgLlp {
    /// Unreliable datagram service (UDP analog) — UD mode.
    Ud(DgramConduit),
    /// Reliable datagram service — RD mode.
    Rd(Box<RdConduit>),
}

impl DgLlp {
    /// Datagrams a receive can still take: wire packets waiting in the
    /// delivery ring, before reassembly, and on RD the messages a drive
    /// step already delivered in order.
    fn rx_backlog(&self) -> usize {
        match self {
            DgLlp::Ud(c) => c.rx_backlog(),
            DgLlp::Rd(c) => c.rx_backlog(),
        }
    }

    /// True when [`Self::try_recv_sg`] can make progress now. On UD that
    /// is a non-empty delivery ring. On RD packets in the ring do not
    /// count while a send or flush drives the protocol: that call takes
    /// them, and the arrival notifier runs for what it leaves.
    fn can_recv(&self) -> bool {
        match self {
            DgLlp::Ud(c) => c.rx_backlog() > 0,
            DgLlp::Rd(c) => c.can_recv(),
        }
    }

    /// Receives the next complete datagram as a scatter-gather list (an
    /// unfragmented UD datagram arrives as the sender's original slices;
    /// RD always delivers contiguous messages), waiting up to `timeout`.
    /// Its one caller is [`DatagramQp::progress`]. A threaded QP's waiters
    /// and fallback thread never block here: they drain with
    /// [`Self::try_recv_sg`] once the arrival notifier (or, on RD, a due
    /// retransmission timer) has woken them. On RD this call is what runs
    /// the reliable-datagram protocol (ACKs, retransmission timers), so in
    /// poll mode `progress` is its only driver.
    fn recv_sg(&self, timeout: Duration) -> Result<(Addr, SgBytes), NetError> {
        match self {
            DgLlp::Ud(c) => c.recv_sg_from(Some(timeout)),
            DgLlp::Rd(c) => c
                .recv_from(Some(timeout))
                .map(|(src, b)| (src, SgBytes::from(b))),
        }
    }

    /// Non-blocking receive: drains already-delivered wire packets only
    /// (on RD, one zero-wait drive step, which also fires due
    /// retransmission timers). The batch-drain primitive of the shard
    /// engines, CQ waiters and the fallback thread.
    fn try_recv_sg(&self) -> Result<(Addr, SgBytes), NetError> {
        match self {
            DgLlp::Ud(c) => c.try_recv_sg_from(),
            DgLlp::Rd(c) => c
                .recv_from(Some(Duration::ZERO))
                .map(|(src, b)| (src, SgBytes::from(b))),
        }
    }

    /// Installs an arrival notifier on the conduit's wire endpoint. It
    /// runs in the sender's thread after each delivered burst (on RD also
    /// when a send or flush delivered messages, see
    /// [`RdConduit::set_notify`]). Two engines install one: a shard, which
    /// marks a UD QP ready in its inbox, and a threaded QP, whose notifier
    /// wakes a waiter parked on the receive CQ or, when no waiter will
    /// take the arrival, the fallback thread (see
    /// [`DgInner::on_arrival`]).
    fn set_notify(&self, notify: Option<simnet::RxNotify>) {
        match self {
            DgLlp::Ud(c) => c.set_notify(notify),
            DgLlp::Rd(c) => c.set_notify(notify),
        }
    }

    /// Re-runs the installed arrival notifier.
    fn renotify(&self) {
        match self {
            DgLlp::Ud(c) => c.renotify(),
            DgLlp::Rd(c) => c.renotify(),
        }
    }

    /// True while an RD retransmission timer is armed (never on UD). Takes
    /// no lock, so the arrival notifier can ask on every arrival.
    fn retransmit_armed(&self) -> bool {
        match self {
            DgLlp::Ud(_) => false,
            DgLlp::Rd(c) => c.retransmit_armed(),
        }
    }

    /// The time until RD's earliest retransmission deadline, zero when
    /// one is due; `None` on UD and when no timer is armed.
    fn retransmit_due_in(&self) -> Option<Duration> {
        match self {
            DgLlp::Ud(_) => None,
            DgLlp::Rd(c) => c.retransmit_due_in(),
        }
    }

    fn local_addr(&self) -> Addr {
        match self {
            DgLlp::Ud(c) => c.local_addr(),
            DgLlp::Rd(c) => c.local_addr(),
        }
    }

    fn is_reliable(&self) -> bool {
        matches!(self, DgLlp::Rd(_))
    }

    /// Where this LLP's transmits go.
    fn wire(&self) -> Wire<'_> {
        match self {
            DgLlp::Ud(c) => Wire::Ud(c),
            DgLlp::Rd(c) => Wire::Rd(c),
        }
    }
}

pub(crate) struct DgInner {
    llp: DgLlp,
    tx: TxCore,
    pub(crate) rx: RxCore,
    /// Who runs the receive engine; also carries the QP's shutdown flag.
    gate: EngineGate,
    _mem: Option<MemScope>,
}

impl DgInner {
    pub(crate) fn qpn(&self) -> u32 {
        self.tx.qpn
    }

    /// True when a CQ waiter should run the engine now: datagrams wait
    /// (see [`DgLlp::can_recv`]) and nobody holds the engine.
    pub(crate) fn waiter_can_drive(&self) -> bool {
        !self.gate.state().closed() && self.llp.can_recv()
    }

    /// A CQ waiter's turn at the engine: one batch drain under the gate.
    /// Does nothing when another thread holds the engine.
    pub(crate) fn waiter_drive(&self) {
        if self.gate.try_acquire() {
            self.rx.metrics().rx_waiter_steps.inc();
            let drained = rx_drain(self, BATCH);
            self.release(Driver::Waiter, drained);
        }
    }

    /// Counts a CQ waiter as parked, so arrivals wake it. Returns `false`
    /// (and counts nothing) when the waiter should drive instead: the
    /// last look at the ring comes after the count, so an arrival either
    /// sees the parked waiter or is seen here.
    pub(crate) fn park_waiter(&self) -> bool {
        self.gate.park();
        if self.waiter_can_drive() {
            self.gate.unpark();
            return false;
        }
        true
    }

    /// Undoes [`Self::park_waiter`] once the waiter woke.
    pub(crate) fn unpark_waiter(&self) {
        self.gate.unpark();
    }

    /// True once the QP is being dropped or its LLP died.
    pub(crate) fn is_shut(&self) -> bool {
        self.gate.is_shut()
    }

    /// A waiter leaves without a completion. Datagrams it was woken for
    /// go to whoever the arrival notifier picks now.
    pub(crate) fn waiter_leaves(&self) {
        if self.llp.can_recv() {
            self.llp.renotify();
        }
    }

    /// Gives the engine back after a turn. A datagram that landed while
    /// the engine was held found it busy and woke nobody, so the holder
    /// re-runs the arrival notifier for it. A dead LLP flushes the QP and
    /// shuts the gate for good.
    fn release(&self, by: Driver, drained: Drained) {
        if drained == Drained::Dead {
            self.rx.flush();
            self.gate.shut();
        }
        self.gate.release(by);
        // The fallback loops on its own backlog instead.
        if by != Driver::Fallback && self.llp.can_recv() {
            self.llp.renotify();
        }
    }

    /// The arrival notifier of a threaded QP. An arrival goes to:
    /// * the holder of the engine, if any: it looks at the ring again
    ///   when it lets go;
    /// * else a waiter parked on the receive CQ, woken to drive;
    /// * else, if a waiter has driven since the fallback last ran, the
    ///   owner: it is expected back, and the fallback's next tick takes
    ///   the arrival if it is not;
    /// * else the fallback thread, woken at once. So is it when the CQ
    ///   notifies a [`CompletionChannel`](crate::chan::CompletionChannel)
    ///   (a thread waiting on the channel runs no engine), and on RD
    ///   while a retransmission timer is armed: the arrival may be the
    ///   ACK a sender that is inside no call waits for, and its loss
    ///   recovery must not wait for a tick.
    fn on_arrival(&self, fallback: &Thread) {
        match self.route() {
            Route::Waiter => self.rx.recv_cq.wake_waiter(),
            Route::Fallback => fallback.unpark(),
            Route::Holder | Route::Owner => {}
        }
    }

    /// Who [`Self::on_arrival`] hands an arrival to now.
    fn route(&self) -> Route {
        let gate = self.gate.state();
        if gate.closed() {
            Route::Holder
        } else if gate.parked() > 0 {
            Route::Waiter
        } else if !gate.owner_drove()
            || self.llp.retransmit_armed()
            || self.rx.recv_cq.has_channel()
        {
            Route::Fallback
        } else {
            Route::Owner
        }
    }

    /// True for RD (reliable datagram) mode.
    pub(crate) fn is_reliable(&self) -> bool {
        self.llp.is_reliable()
    }

    /// See [`DgLlp::set_notify`].
    pub(crate) fn set_notify(&self, notify: Option<simnet::RxNotify>) {
        self.llp.set_notify(notify);
    }

    /// Runs `wrs` through the transmit pipeline on this QP's LLP.
    fn post(&self, verb: Verb, wrs: &[SendWr]) -> IwarpResult<()> {
        self.tx.transmit(self.llp.wire(), verb, wrs)
    }
}

/// Where the arrival notifier sends an arrival ([`DgInner::on_arrival`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// The thread holding the engine, or nobody once the QP is shut.
    Holder,
    /// A waiter parked on the receive CQ.
    Waiter,
    /// The owner, expected back in a CQ wait.
    Owner,
    /// The fallback thread.
    Fallback,
}

/// A datagram-iWARP queue pair (UD or RD mode).
///
/// Created through [`crate::device::Device`]; see the crate root for the
/// full API tour.
pub struct DatagramQp {
    inner: Arc<DgInner>,
    /// The engine thread of a threaded QP: its fallback.
    rx_thread: Option<std::thread::JoinHandle<()>>,
    /// Set when a shard engine drives this QP's receives (no `rx_thread`);
    /// held so Drop can unregister from the shard map.
    shard: Option<(Arc<crate::shard::ShardMap>, u32)>,
}

impl DatagramQp {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        qpn: u32,
        llp: DgLlp,
        mrs: Arc<MrTable>,
        send_cq: Cq,
        recv_cq: Cq,
        cfg: QpConfig,
        mem: Option<MemScope>,
        tel: &Telemetry,
        shards: Option<&Arc<crate::shard::ShardMap>>,
    ) -> Self {
        let delivery = if llp.is_reliable() {
            Delivery::Reliable
        } else {
            Delivery::Unreliable
        };
        recv_cq.attach_telemetry(tel);
        let inner = Arc::new(DgInner {
            tx: TxCore::new(qpn, send_cq, cfg.max_msg_size, tel),
            rx: RxCore::new(mrs, recv_cq, cfg, delivery, tel, llp.local_addr()),
            llp,
            gate: EngineGate::default(),
            _mem: mem,
        });
        // Poll mode always wins (caller-driven, deterministic — chaos
        // replay depends on it). Otherwise prefer a shard engine when the
        // device has one and the QP is UD; fall back to a per-QP thread,
        // the fallback of a QP whose CQ waiters drive it.
        let shard = if inner.rx.cfg.poll_mode {
            None
        } else {
            shards
                .filter(|map| map.register(&inner))
                .map(|map| (Arc::clone(map), qpn))
        };
        let threaded = !inner.rx.cfg.poll_mode && shard.is_none();
        // Only a threaded QP's waiters run its engine; every other QP
        // still marks the CQ, so a CQ shared with it never drives.
        inner.rx.recv_cq.bind_receiver(if threaded {
            Arc::downgrade(&inner)
        } else {
            Weak::new()
        });
        let rx_thread = threaded.then(|| {
            let rx_inner = Arc::clone(&inner);
            let thread = std::thread::Builder::new()
                .name(format!("iwarp-dgqp-{qpn}"))
                .spawn(move || fallback_loop(&rx_inner))
                .expect("spawn datagram QP rx thread");
            let engine = Arc::downgrade(&inner);
            let fallback = thread.thread().clone();
            inner.set_notify(Some(Arc::new(move |_| {
                if let Some(engine) = engine.upgrade() {
                    engine.on_arrival(&fallback);
                }
            })));
            thread
        });
        Self {
            inner,
            rx_thread,
            shard,
        }
    }

    /// A threaded QP: CQ waiters drive it, with the engine thread as the
    /// fallback, all under the engine gate.
    fn waiters_drive(&self) -> bool {
        self.rx_thread.is_some()
    }

    /// True when a device shard engine (not a per-QP thread or the
    /// caller) drives this QP's receive processing.
    #[must_use]
    pub fn is_sharded(&self) -> bool {
        self.shard.is_some()
    }

    /// Poll-mode driver: one receive-engine iteration, waiting up to
    /// `max_wait` for an incoming datagram. Call this (or let the socket
    /// shim call it) when the QP was created with
    /// [`QpConfig::poll_mode`]; in threaded mode the engine thread
    /// already does this work. On an RD QP this call also runs the
    /// reliable-datagram protocol, so a poll-mode RD QP neither
    /// acknowledges nor retransmits between calls. On a threaded QP it
    /// takes the engine gate like any other driver, and returns at once
    /// when a CQ waiter or the fallback thread holds the engine.
    pub fn progress(&self, max_wait: Duration) {
        let inner = &*self.inner;
        if self.waiters_drive() {
            if inner.gate.try_acquire() {
                let drained = if rx_step(inner, max_wait) {
                    Drained::Idle
                } else {
                    Drained::Dead
                };
                inner.release(Driver::Progress, drained);
            }
        } else {
            rx_step(inner, max_wait);
        }
    }

    /// Exactly [`Self::progress`]; `_budget` is ignored. Receives are
    /// per-datagram only (DESIGN.md §7), and this spelling is kept
    /// because the benchmark suite, which pins its own call sites, still
    /// calls it.
    pub fn progress_burst(&self, _budget: usize, max_wait: Duration) {
        self.progress(max_wait);
    }

    /// Datagrams already delivered to this QP but not yet ingested: wire
    /// packets in the delivery ring and, on RD, messages the protocol
    /// already delivered in order. A [`Self::progress`] call consumes at
    /// least one whenever this is non-zero, so poll-mode drivers can loop
    /// `progress` until the backlog reads zero to drain a tick to
    /// quiescence.
    #[must_use]
    pub fn rx_backlog(&self) -> usize {
        self.inner.llp.rx_backlog()
    }

    /// This QP's number (advertise it to peers along with
    /// [`Self::local_addr`]).
    #[must_use]
    pub fn qpn(&self) -> u32 {
        self.inner.tx.qpn
    }

    /// The conduit address peers send to.
    #[must_use]
    pub fn local_addr(&self) -> Addr {
        self.inner.llp.local_addr()
    }

    /// The [`UdDest`] peers should use to reach this QP.
    #[must_use]
    pub fn dest(&self) -> UdDest {
        UdDest {
            addr: self.local_addr(),
            qpn: self.qpn(),
        }
    }

    /// True for RD (reliable datagram) mode.
    #[must_use]
    pub fn is_reliable(&self) -> bool {
        self.inner.llp.is_reliable()
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

    /// Largest message this QP will send.
    #[must_use]
    pub fn max_msg_size(&self) -> usize {
        self.inner.tx.max_msg_size
    }

    /// Posts a receive work request.
    pub fn post_recv(&self, wr: RecvWr) -> IwarpResult<()> {
        self.inner.rx.post_recv(wr);
        Ok(())
    }

    /// Posts a batch of receives under a single receive-ring lock round —
    /// the `ibv_post_recv` linked-list idiom as a slice. Ring order is
    /// identical to posting each WR individually.
    pub fn post_recv_batch(&self, wrs: &[RecvWr]) -> IwarpResult<()> {
        self.inner.rx.post_recv_batch(wrs.iter().cloned());
        Ok(())
    }

    /// Number of posted, unconsumed receives.
    #[must_use]
    pub fn posted_recvs(&self) -> usize {
        self.inner.rx.rq_len()
    }

    /// Posts an untagged send to `dest`. Completes on the send CQ as soon
    /// as every segment has been handed to the LLP (datagram semantics:
    /// no acknowledgement is awaited). A doorbell of one: see
    /// [`Self::post_send_batch`] for the pipeline and its error contract.
    pub fn post_send(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
    ) -> IwarpResult<()> {
        let wr = SendWr::new(wr_id, payload, dest);
        self.inner.post(Verb::Send, &[wr])
    }

    /// Posts a **send with solicited event**: identical to
    /// [`Self::post_send`] on the wire except the target's completion is
    /// flagged solicited, waking [`Cq::wait_solicited`] waiters — the
    /// two-sided notification verb the paper compares Write-Record with
    /// (§IV.B.3).
    pub fn post_send_solicited(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
    ) -> IwarpResult<()> {
        let wr = SendWr {
            solicited: true,
            ..SendWr::new(wr_id, payload, dest)
        };
        self.inner.post(Verb::Send, &[wr])
    }

    /// Posts a batch of untagged sends — the multi-WR doorbell, and the
    /// general form of the one transmit pipeline that every verb on every
    /// QP flavour (sends, writes, read requests and the responder's read
    /// responses, on UD, RD and [`crate::RcQp`]) runs:
    ///
    /// 1. **Validate**: each payload is materialized and size-checked.
    /// 2. **Place signals** over the accepted WRs
    ///    ([`crate::signal::place_signals`], against the send CQ's
    ///    capacity and occupancy), so an unsignaled chain can never
    ///    deadlock a full CQ and a forced signal lands on a posted WR.
    /// 3. **Segment and encode**: on UD and RD, one DDP segment per
    ///    datagram, every header and CRC trailer of the call from one
    ///    pooled arena; on RC, one MPA FPDU per segment, the call's FPDUs
    ///    framed into one buffer.
    /// 4. **Flush**: on UD, one fabric burst per destination in first-seen
    ///    order ([`DgramConduit::send_sg_burst`]); on RD, segment by
    ///    segment, since the windowed conduit keeps owned messages; on RC,
    ///    one stream write, still under the MPA lock the framing took.
    /// 5. **Complete** in WR order under one CQ lock round
    ///    ([`Cq::push_batch`]). A WR is done once its last segment is
    ///    handed to the transport (paper §IV.B.3): signaled WRs complete
    ///    `Success`, unsignaled ones retire under
    ///    `core.cq.unsignaled_retired`.
    ///
    /// Wire bytes, CQE contents and CQE order are identical to posting
    /// each WR with [`Self::post_send`].
    ///
    /// The error contract, the same for every verb and QP: a WR that
    /// fails validation (oversized payload, revoked region) ends the call
    /// before anything is sent. The WRs before it are posted, it and the
    /// WRs after it get no CQE, and its error returns. The first flush
    /// that fails (RD after a reset, RC on a failed stream; UD segments
    /// always fit the wire) ends the call too. The WRs it carried
    /// complete with [`CqeStatus::Error`](crate::cq::CqeStatus::Error),
    /// signaled or not, with `byte_len` counting their bytes handed over
    /// before it; WRs not yet flushed get no CQE; and the flush error
    /// returns. Read requests and responses never leave a send CQE.
    pub fn post_send_batch(&self, wrs: &[SendWr]) -> IwarpResult<()> {
        self.inner.post(Verb::Send, wrs)
    }

    /// Posts an **RDMA Write-Record** to `(remote_stag, remote_to)` on the
    /// target named by `dest` — the paper's new one-sided operation. No
    /// receive is consumed at the target; its stack logs a completion with
    /// a validity map once the final segment arrives.
    pub fn post_write_record(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        let verb = Verb::write(RdmapOpcode::WriteRecord, remote_stag, remote_to, 0);
        self.inner.post(verb, &[SendWr::new(wr_id, payload, dest)])
    }

    /// Posts an InfiniBand-style **RDMA Write with Immediate**: data is
    /// placed one-sided, but delivering `imm` consumes a *posted receive*
    /// at the target — the requirement RDMA Write-Record removes
    /// (paper §IV.B.3). On UD, if no receive is posted the immediate is
    /// lost (counted in the target's `dropped_no_rq`).
    pub fn post_write_imm(
        &self,
        wr_id: u64,
        payload: impl Into<SendPayload>,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
        imm: u32,
    ) -> IwarpResult<()> {
        let verb = Verb::write(RdmapOpcode::RdmaWriteImm, remote_stag, remote_to, imm);
        self.inner.post(verb, &[SendWr::new(wr_id, payload, dest)])
    }

    /// Posts an RDMA Read (paper future-work extension): fetches
    /// `len` bytes from `(remote_stag, remote_to)` on `dest` into
    /// `(sink, sink_to)`. Completes on the **receive** CQ with the given
    /// `wr_id`; if the response is lost on UD, the completion carries
    /// [`CqeStatus::Expired`](crate::cq::CqeStatus::Expired) after the configured read TTL.
    #[allow(clippy::too_many_arguments)]
    pub fn post_read(
        &self,
        wr_id: u64,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u32,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        let inner = &self.inner;
        inner.tx.post_read(
            inner.llp.wire(),
            &inner.rx,
            wr_id,
            sink,
            sink_to,
            len,
            dest,
            remote_stag,
            remote_to,
            true,
        )
    }

    /// Posts an **unsignaled** RDMA Read: on success no CQE is generated —
    /// the completed `wr_id` is instead retired into a drainable list
    /// ([`Self::take_retired_reads`]) and counted under
    /// `core.cq.unsignaled_retired`. A read that *expires* (response lost
    /// past the read TTL) always surfaces an [`CqeStatus::Expired`](crate::cq::CqeStatus::Expired) CQE,
    /// signaled or not — errors are never silent. This is the
    /// `sq_sig_all=0` discipline for the streaming-read engine
    /// ([`crate::read::BulkRead`]).
    #[allow(clippy::too_many_arguments)]
    pub fn post_read_unsignaled(
        &self,
        wr_id: u64,
        sink: &MemoryRegion,
        sink_to: u64,
        len: u32,
        dest: UdDest,
        remote_stag: u32,
        remote_to: u64,
    ) -> IwarpResult<()> {
        let inner = &self.inner;
        inner.tx.post_read(
            inner.llp.wire(),
            &inner.rx,
            wr_id,
            sink,
            sink_to,
            len,
            dest,
            remote_stag,
            remote_to,
            false,
        )
    }

    /// Completed unsignaled reads' `wr_id`s, drained in completion order.
    #[must_use]
    pub fn take_retired_reads(&self) -> Vec<u64> {
        self.inner.rx.take_retired_reads()
    }

    /// Cancels this QP's outstanding reads whose `wr_id` is in `[lo, hi)`
    /// — pending ones (late responses are dropped, no `Expired` CQE
    /// follows) and unsignaled ones already retired but not yet taken.
    /// Returns the pending reads cancelled. A caller that reuses a
    /// `wr_id` range ([`crate::read::BulkRead`]) calls this so one use's
    /// completions cannot be taken for the next's.
    pub fn cancel_reads(&self, lo: u64, hi: u64) -> usize {
        self.inner.rx.cancel_reads(lo, hi)
    }

    /// Write-Record messages at this *target* still awaiting their final
    /// segment (diagnostic).
    #[must_use]
    pub fn records_pending(&self) -> usize {
        self.inner.rx.records_pending()
    }

    /// Whether the receive engine's cold substructures (reassembly map,
    /// Write-Record table, pending-read scoreboard) have been allocated.
    /// Stays `false` for idle QPs and for traffic that rides the
    /// single-segment fast path — the memory-scaling invariant the slab
    /// compaction work (and its regression tests) relies on.
    #[must_use]
    pub fn rx_cold_allocated(&self) -> bool {
        self.inner.rx.cold_state_allocated()
    }

    /// Subscribes this UD QP to a multicast group: sends addressed to
    /// `UdDest { addr: group, .. }` then reach every member — the
    /// "multicast capable iWARP" the paper's motivation calls out for
    /// high-bandwidth media distribution (§IV.A). UD mode only.
    pub fn join_multicast(&self, group: Addr) -> IwarpResult<()> {
        match &self.inner.llp {
            DgLlp::Ud(c) => Ok(c.join_multicast(group)?),
            DgLlp::Rd(_) => Err(IwarpError::QpState("multicast is defined for UD QPs only")),
        }
    }

    /// Unsubscribes this UD QP from `group` (no-op on RD).
    pub fn leave_multicast(&self, group: Addr) {
        if let DgLlp::Ud(c) = &self.inner.llp {
            c.leave_multicast(group);
        }
    }
}

impl std::fmt::Debug for DatagramQp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatagramQp")
            .field("qpn", &self.inner.tx.qpn)
            .field("addr", &self.local_addr())
            .field("reliable", &self.is_reliable())
            .finish()
    }
}

impl Drop for DatagramQp {
    fn drop(&mut self) {
        let inner = &*self.inner;
        let waiters_drive = self.waiters_drive();
        inner.gate.shut();
        if let Some((map, qpn)) = self.shard.take() {
            // Silence the fabric notifier first so no new readiness is
            // queued, then pull the QP out of its shard's inbox.
            inner.llp.set_notify(None);
            map.unregister(qpn);
        }
        if waiters_drive {
            // No waiter or fallback is woken for this QP again.
            inner.llp.set_notify(None);
            inner.rx.recv_cq.unbind_receiver(inner);
        }
        if let Some(t) = self.rx_thread.take() {
            t.thread().unpark();
            let _ = t.join();
        }
        // A waiter inside its batch drain finishes it; then no thread
        // touches the engine again.
        inner.gate.wait_idle();
        inner.rx.flush();
        if waiters_drive {
            // Parked waiters wake, to the flush or to this when there was
            // nothing to flush, and let go of the engine.
            inner.rx.recv_cq.wake_waiters();
        }
    }
}

/// Longest a fallback thread parks between looks. It bounds TTL expiry
/// on an idle QP and how long an arrival left for its owner can wait for
/// the fallback. An RD fallback with a retransmission timer armed parks
/// only until the timer is due (at least [`RdConduit::TIMER_FLOOR`]).
const TICK: Duration = Duration::from_millis(5);

/// Datagrams one engine turn drains before it lets go: a CQ waiter's turn,
/// a fallback turn, and a shard's per-QP batch (the fairness bound that
/// keeps a flooding QP from starving its shard siblings).
pub(crate) const BATCH: usize = 64;

/// A threaded QP's fallback engine (`iwarp-dgqp-<qpn>`): the driver for
/// arrivals no CQ waiter takes and, on RD, for retransmission timers
/// that fall due while nobody is inside a call. It parks for a [`TICK`]
/// (on RD at most until the earliest retransmission deadline), or until
/// the arrival notifier wakes it, then runs the same non-blocking batch
/// drain as a shard worker, under the engine gate. A turn that finds the
/// ring empty and no RD timer due only runs the TTL sweep; with a timer
/// due it drains anyway, since on RD the drain's zero-wait drive step is
/// what fires the timer. Only drains with datagrams waiting count as
/// `core.rx.fallback_drains`. It ends when the QP is dropped or its LLP
/// dies (after flushing the QP).
fn fallback_loop(inner: &DgInner) {
    // The first turn catches anything delivered before the notifier was
    // installed.
    while !inner.gate.is_shut() {
        if inner.gate.try_acquire() {
            let backlog = inner.llp.can_recv();
            let drained = if backlog || inner.llp.retransmit_due_in() == Some(Duration::ZERO) {
                if backlog {
                    inner.rx.metrics().rx_fallback_drains.inc();
                }
                rx_drain(inner, BATCH)
            } else {
                inner.rx.expire();
                Drained::Idle
            };
            inner.release(Driver::Fallback, drained);
            // Still queued: the budget ran out, or a datagram landed
            // while the engine was held and woke nobody.
            if drained == Drained::More || inner.llp.can_recv() {
                continue;
            }
        }
        let park = inner
            .llp
            .retransmit_due_in()
            .map_or(TICK, |due| due.clamp(RdConduit::TIMER_FLOOR, TICK));
        std::thread::park_timeout(park);
    }
}

/// One receive-engine iteration: the software stand-in for the RNIC's
/// receive DMA engine, run by [`DatagramQp::progress`]. Returns false once
/// the LLP is dead.
///
/// Datagrams arrive as scatter-gather lists: an unfragmented SG-path
/// datagram reaches this decode as the sender's original slices, with its
/// CRC check deferred ([`decode_sg`]) so the engine can settle it at
/// placement instead of flattening here.
fn rx_step(inner: &DgInner, max_wait: Duration) -> bool {
    match inner.llp.recv_sg(max_wait) {
        Ok((src, dgram)) => rx_dispatch(inner, src, &dgram),
        Err(NetError::Timeout) => {}
        Err(_) => {
            // Every other LLP error is terminal: UD only reports `Closed`,
            // RD `Reset` (retry budget exhausted) or `Closed`, and each
            // returns at once on every later call.
            inner.rx.flush();
            return false;
        }
    }
    inner.rx.expire();
    true
}

/// Hands one received datagram to the receive pipeline — the
/// per-message half of [`rx_step`], shared with the shard engines' drain.
/// The CRC is mandatory on the datagram path (paper §IV.B.6). Nothing
/// stalls on a datagram QP, and a malformed datagram is counted and
/// dropped.
fn rx_dispatch(inner: &DgInner, src: Addr, dgram: &SgBytes) {
    if let Ingest::Respond(reply) = inner.rx.ingest(src, decode_sg(dgram, true)) {
        // A response that cannot be sent is the requester's to recover:
        // its read expires.
        let _ = inner.tx.respond(inner.llp.wire(), reply);
    }
}

/// What a batch drain left behind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Drained {
    /// The delivery ring ran dry.
    Idle,
    /// The budget ran out with datagrams still queued: the caller should
    /// come back (a shard re-queues the QP behind its siblings).
    More,
    /// The LLP is dead.
    Dead,
}

/// Batch drain, the non-blocking engine turn of shard workers, CQ waiters
/// and the fallback thread: processes up to `budget` already-delivered
/// datagrams, then runs the (self-throttled) expiry sweep.
pub(crate) fn rx_drain(inner: &DgInner, budget: usize) -> Drained {
    for _ in 0..budget {
        match inner.llp.try_recv_sg() {
            Ok((src, dgram)) => rx_dispatch(inner, src, &dgram),
            Err(NetError::Timeout) => {
                inner.rx.expire();
                return Drained::Idle;
            }
            Err(_) => return Drained::Dead,
        }
    }
    inner.rx.expire();
    Drained::More
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use simnet::{Fabric, NodeId};

    /// Where an arrival goes once a waiter has driven `qp` and left.
    fn route_after_the_owner_drove(qp: &DatagramQp) -> Route {
        assert!(qp.inner.gate.try_acquire());
        qp.inner.gate.release(Driver::Waiter);
        qp.inner.route()
    }

    #[test]
    fn an_arrival_goes_to_the_fallback_while_a_retransmission_timer_is_armed() {
        // Poll mode: no fallback thread runs a turn (and clears the
        // owner's mark) behind the test's back.
        let fab = Fabric::loopback();
        let dev = Device::new(&fab, NodeId(0));
        let cfg = QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        };
        let (scq, rcq) = (Cq::new(4), Cq::new(4));
        let ud = dev.create_ud_qp(None, &scq, &rcq, cfg.clone()).unwrap();
        let rd = dev.create_rd_qp(None, &scq, &rcq, cfg).unwrap();
        assert_eq!(route_after_the_owner_drove(&ud), Route::Owner);
        assert_eq!(route_after_the_owner_drove(&rd), Route::Owner);
        // A message to nobody stays unacknowledged, so its timer stays
        // armed: the arrival may be the ACK its sender waits for.
        let void = UdDest {
            addr: Addr::new(9, 9),
            qpn: 1,
        };
        rd.post_send(1, &b"void"[..], void).unwrap();
        assert_eq!(route_after_the_owner_drove(&rd), Route::Fallback);
    }
}
