//! Completion queues.
//!
//! Every verbs operation reports through a [`Cq`]. Datagram-iWARP adds two
//! requirements over the connected standard (paper §IV.B):
//!
//! * polling must support a **timeout** — a lost datagram means an awaited
//!   completion may never materialize ("it is essential that the completion
//!   queue be polled with a defined timeout period", §IV.B.1);
//! * completion entries are **extended with the source address and port**
//!   of incoming data, since a UD QP has no single peer.
//!
//! Write-Record target completions additionally carry a
//! [`WriteRecordInfo`] describing which sink bytes are valid.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use iwarp_telemetry::{CoreMetrics, Telemetry};
use parking_lot::{Condvar, Mutex};
use simnet::Addr;

use crate::chan::CompletionChannel;
use crate::error::{IwarpError, IwarpResult};
use crate::qp::dgram::DgInner;
use crate::wr_record::WriteRecordInfo;

/// What kind of operation a completion describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeOpcode {
    /// A posted send finished (handed to the LLP).
    Send,
    /// A posted receive was consumed by an incoming send.
    Recv,
    /// A source-side RDMA Write (or Write-Record) finished.
    RdmaWrite,
    /// A target-side RDMA Write-Record completion — no posted WR consumed;
    /// this is the paper's one-sided notification mechanism.
    WriteRecord,
    /// An RDMA Read completed at the requester.
    RdmaRead,
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeStatus {
    /// The operation completed in full.
    Success,
    /// A Write-Record message completed with gaps: some segments were lost
    /// but the final segment arrived, so the valid ranges are declared via
    /// the validity map (partial placement, paper §IV.B.4).
    Partial,
    /// A posted receive expired: the message it was matched to never
    /// completed (datagram loss) and the buffer was recovered
    /// ("detect failed operations and recover buffers", paper Fig. 2).
    Expired,
    /// The incoming message did not fit the posted buffer.
    RecvTooSmall,
    /// The QP was torn down with this WR outstanding.
    Flushed,
    /// A local or protocol error; details in diagnostics counters.
    Error,
}

/// Identity of the remote sender, reported on datagram completions
/// (paper §IV.B item 4: "completion queue elements need to be altered to
/// include information concerning the source address and port").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CqeSource {
    /// Fabric address (node:port) of the sending conduit.
    pub addr: Addr,
    /// Sender's QP number.
    pub qpn: u32,
}

/// One completion-queue entry.
#[derive(Clone, Debug)]
pub struct Cqe {
    /// Application token from the work request (0 for unsolicited
    /// target-side Write-Record completions).
    pub wr_id: u64,
    /// Operation kind.
    pub opcode: CqeOpcode,
    /// Outcome.
    pub status: CqeStatus,
    /// Bytes transferred (for `Partial`: bytes actually valid).
    pub byte_len: u32,
    /// Sender identity on datagram receives.
    pub src: Option<CqeSource>,
    /// Validity details for target-side Write-Record completions.
    pub write_record: Option<WriteRecordInfo>,
    /// Immediate data delivered by an RDMA Write with Immediate.
    pub imm: Option<u32>,
    /// True when the sender requested a solicited event (send with
    /// solicited event / write-with-immediate); see
    /// [`Cq::wait_solicited`].
    pub solicited: bool,
}

/// A blank entry for pre-sizing [`Cq::poll_into`] scratch buffers; never
/// produced by the stack itself.
impl Default for Cqe {
    fn default() -> Self {
        Self {
            wr_id: 0,
            opcode: CqeOpcode::Send,
            status: CqeStatus::Success,
            byte_len: 0,
            src: None,
            write_record: None,
            imm: None,
            solicited: false,
        }
    }
}

/// Who hears about this CQ beyond its pollers.
#[derive(Default)]
struct Hooks {
    /// Event subscription: every push notifies the channel under the
    /// token (see [`Cq::attach_channel`]).
    chan: Option<(CompletionChannel, u64)>,
    /// The QPs whose receives complete here: `None` before the first,
    /// the receive engine of the one threaded QP a waiter may drive,
    /// or a dangling `Weak` (nothing to drive) for any other QP and once
    /// a second QP's receives complete here.
    receivers: Option<Weak<DgInner>>,
}

struct CqInner {
    queue: Mutex<VecDeque<Cqe>>,
    cv: Condvar,
    /// Woken only by solicited completions (the solicited-event channel).
    solicited_cv: Condvar,
    /// Solicited pushes so far; a waiter compares it for change only, so
    /// wrapping is harmless.
    solicited_seq: AtomicU32,
    capacity: u32,
    overflows: AtomicU64,
    /// Completions retired without a CQE because the WR was unsignaled.
    unsignaled_retired: AtomicU64,
    /// The domain counted into under `core.cq.*`; every CQ of a fabric
    /// aggregates into the same metrics.
    tel: OnceLock<Telemetry>,
    hooks: Mutex<Hooks>,
}

/// A completion queue. Clones share the same queue.
#[derive(Clone)]
pub struct Cq {
    inner: Arc<CqInner>,
}

impl Cq {
    /// Creates a CQ holding at most `capacity` outstanding entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(CqInner {
                // Deliberately unsized: a CQ on an idle connection costs no
                // heap until its first completion, which is what keeps
                // per-call bytes flat at 100k mostly-quiet calls (Fig. 11).
                // `VecDeque` grows amortized toward `capacity` on busy CQs.
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
                solicited_cv: Condvar::new(),
                solicited_seq: AtomicU32::new(0),
                capacity: capacity.clamp(1, u32::MAX as usize) as u32,
                overflows: AtomicU64::new(0),
                unsignaled_retired: AtomicU64::new(0),
                tel: OnceLock::new(),
                hooks: Mutex::new(Hooks::default()),
            }),
        }
    }

    /// Binds this CQ into a telemetry domain: every push is counted under
    /// `core.cq.*` by outcome, overflows are exported, and timed polls
    /// record their wait in the `core.cq.poll_wait_nanos` histogram.
    /// Called automatically when a QP is created over the CQ; idempotent
    /// (the first domain wins).
    pub fn attach_telemetry(&self, tel: &Telemetry) {
        self.inner.tel.get_or_init(|| tel.clone());
    }

    /// The `core.*` block of the bound domain, if any.
    fn metrics(&self) -> Option<&CoreMetrics> {
        self.inner.tel.get().map(Telemetry::core)
    }

    /// Counts one accepted entry by status under `core.cq.*`.
    fn count_push(&self, status: CqeStatus) {
        if let Some(m) = self.metrics() {
            m.cq_cqes.inc();
            match status {
                CqeStatus::Success => m.cq_cqe_success.inc(),
                CqeStatus::Partial => m.cq_cqe_partial.inc(),
                CqeStatus::Expired => m.cq_cqe_expired.inc(),
                CqeStatus::RecvTooSmall => m.cq_cqe_recv_too_small.inc(),
                CqeStatus::Flushed => m.cq_cqe_flushed.inc(),
                CqeStatus::Error => m.cq_cqe_error.inc(),
            }
        }
    }

    /// Enqueues a completion. On overflow the entry is dropped and counted
    /// (a real RNIC would transition to a catastrophic error; benchmarks
    /// size their CQs to make this unreachable).
    pub fn push(&self, cqe: Cqe) {
        let mut q = self.inner.queue.lock();
        if q.len() >= self.capacity() {
            self.inner.overflows.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = self.metrics() {
                m.cq_overflows.inc();
            }
            return;
        }
        self.count_push(cqe.status);
        let solicited = cqe.solicited;
        q.push_back(cqe);
        drop(q);
        self.inner.cv.notify_one();
        if solicited {
            self.inner.solicited_seq.fetch_add(1, Ordering::Relaxed);
            self.inner.solicited_cv.notify_all();
        }
        // Event subscription last, after the CQE is visible to poll():
        // a waiter woken by the channel must find the entry.
        let sub = self.inner.hooks.lock().chan.clone();
        if let Some((chan, token)) = sub {
            chan.notify(token);
        }
    }

    /// Enqueues a batch of completions under one queue lock with one
    /// wakeup. Per-entry bookkeeping (overflow accounting, per-status
    /// counters, solicited tracking) is identical to N [`push`](Cq::push)
    /// calls, but pollers, the solicited channel and any attached
    /// [`CompletionChannel`] are notified once per batch — the burst
    /// datapath's completion coalescing.
    pub fn push_batch(&self, cqes: impl IntoIterator<Item = Cqe>) {
        let mut solicited = false;
        let mut pushed = 0usize;
        {
            let mut q = self.inner.queue.lock();
            for cqe in cqes {
                if q.len() >= self.capacity() {
                    self.inner.overflows.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = self.metrics() {
                        m.cq_overflows.inc();
                    }
                    continue;
                }
                self.count_push(cqe.status);
                solicited |= cqe.solicited;
                q.push_back(cqe);
                pushed += 1;
            }
        }
        if pushed == 0 {
            return;
        }
        if pushed == 1 {
            self.inner.cv.notify_one();
        } else {
            self.inner.cv.notify_all();
        }
        if solicited {
            self.inner.solicited_seq.fetch_add(1, Ordering::Relaxed);
            self.inner.solicited_cv.notify_all();
        }
        let sub = self.inner.hooks.lock().chan.clone();
        if let Some((chan, token)) = sub {
            chan.notify(token);
        }
    }

    /// Subscribes this CQ to a [`CompletionChannel`] under `token`:
    /// every subsequent push notifies the channel, waking
    /// [`CompletionChannel::wait_any`] waiters. If completions are
    /// *already* queued the channel is notified immediately, so a
    /// subscriber that attaches after a burst cannot miss it. Replaces
    /// any previous subscription; `detach_channel` removes it.
    pub fn attach_channel(&self, chan: &CompletionChannel, token: u64) {
        self.inner.hooks.lock().chan = Some((chan.clone(), token));
        if !self.is_empty() {
            chan.notify(token);
        }
    }

    /// Removes the channel subscription, if any.
    pub fn detach_channel(&self) {
        self.inner.hooks.lock().chan = None;
    }

    /// Blocks until a *solicited* completion has been enqueued since this
    /// call started (the solicited-event mechanism: an application can
    /// sleep here instead of burning CPU polling, and be woken only for
    /// completions the sender marked important). Entries are NOT consumed;
    /// follow up with [`Cq::poll`].
    pub fn wait_solicited(&self, timeout: Duration) -> IwarpResult<()> {
        let deadline = Instant::now() + timeout;
        let start_seq = self.inner.solicited_seq.load(Ordering::Relaxed);
        // Fast path: a solicited completion may already be queued.
        if self.inner.queue.lock().iter().any(|c| c.solicited) {
            return Ok(());
        }
        let mut q = self.inner.queue.lock();
        loop {
            if self.inner.solicited_seq.load(Ordering::Relaxed) != start_seq
                || q.iter().any(|c| c.solicited)
            {
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(IwarpError::PollTimeout);
            }
            self.inner.solicited_cv.wait_for(&mut q, deadline - now);
        }
    }

    /// Non-blocking poll.
    #[must_use]
    pub fn poll(&self) -> Option<Cqe> {
        self.inner.queue.lock().pop_front()
    }

    /// Records that a QP completes its receives here (called once per QP
    /// at creation). `engine` is the receive engine of a threaded UD or
    /// RD QP, which this CQ's waiters may run, or a dangling `Weak` for
    /// any other QP. Only a CQ that completes exactly one QP's receives,
    /// and that QP's a threaded datagram one, drives; a second QP makes it
    /// a plain CQ.
    pub(crate) fn bind_receiver(&self, engine: Weak<DgInner>) {
        let mut hooks = self.inner.hooks.lock();
        hooks.receivers = Some(match hooks.receivers {
            None => engine,
            Some(_) => Weak::new(),
        });
    }

    /// Forgets `engine` as this CQ's receiver (its QP is being dropped),
    /// so a QP created on this CQ later can drive it again.
    pub(crate) fn unbind_receiver(&self, engine: &DgInner) {
        let mut hooks = self.inner.hooks.lock();
        if hooks
            .receivers
            .as_ref()
            .is_some_and(|r| std::ptr::eq(r.as_ptr(), engine))
        {
            hooks.receivers = None;
        }
    }

    /// The receive engine this CQ's waiters drive, if any.
    fn engine(&self) -> Option<Arc<DgInner>> {
        self.inner
            .hooks
            .lock()
            .receivers
            .as_ref()
            .and_then(Weak::upgrade)
    }

    /// Wakes one thread parked in [`Self::poll_timeout`] so that it runs
    /// the receive engine: the arrival notifier's hand-off. Taking the
    /// queue lock orders the wake after a waiter's last look at the ring.
    pub(crate) fn wake_waiter(&self) {
        drop(self.inner.queue.lock());
        self.inner.cv.notify_one();
    }

    /// Wakes every thread parked in [`Self::poll_timeout`], as when the
    /// engine they drive is shut.
    pub(crate) fn wake_waiters(&self) {
        drop(self.inner.queue.lock());
        self.inner.cv.notify_all();
    }

    /// True while a [`CompletionChannel`] is subscribed.
    pub(crate) fn has_channel(&self) -> bool {
        self.inner.hooks.lock().chan.is_some()
    }

    /// Polls with a timeout — the mandatory datagram-iWARP polling mode.
    ///
    /// **The waiter drives.** When this CQ completes the receives of
    /// exactly one QP, and that QP is a threaded UD or RD QP (neither poll
    /// mode nor sharded), the waiter runs the QP's receive engine itself:
    /// with datagrams waiting in the QP's delivery ring (on RD, or already
    /// delivered in order by the reliable-datagram protocol) and nobody
    /// else running the engine, it drains a batch of them (up to 64; on RD
    /// each take is a zero-wait drive step of the protocol) and then takes
    /// its completion. With nothing to drain it parks, and the QP's
    /// arrival notifier wakes it when a datagram lands. So one wait can
    /// hand back a batch, and the QP's engine thread is only the fallback
    /// for arrivals no waiter takes and for RD's retransmission timers. A
    /// CQ shared by several QPs' receives waits as before, on pushes only.
    ///
    /// `core.cq.poll_wait_nanos` therefore includes the receive work a
    /// waiter ran, not just its time parked.
    pub fn poll_timeout(&self, timeout: Duration) -> IwarpResult<Cqe> {
        let start = Instant::now();
        let deadline = start + timeout;
        let mut engine = self.engine();
        let mut q = self.inner.queue.lock();
        loop {
            if let Some(cqe) = q.pop_front() {
                drop(q);
                if let Some(m) = self.metrics() {
                    m.cq_poll_wait_nanos
                        .record(start.elapsed().as_nanos() as u64);
                }
                return Ok(cqe);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(q);
                if let Some(engine) = &engine {
                    engine.waiter_leaves();
                }
                return Err(IwarpError::PollTimeout);
            }
            let left = deadline - now;
            match engine.as_deref() {
                Some(e) if e.waiter_can_drive() => {
                    drop(q);
                    e.waiter_drive();
                    q = self.inner.queue.lock();
                }
                // The QP is being dropped: wait on pushes alone, and do
                // not keep its engine alive.
                Some(e) if e.is_shut() => {
                    drop(q);
                    engine = None;
                    q = self.inner.queue.lock();
                }
                Some(e) => {
                    if e.park_waiter() {
                        self.inner.cv.wait_for(&mut q, left);
                        e.unpark_waiter();
                    }
                }
                None => {
                    self.inner.cv.wait_for(&mut q, left);
                }
            }
        }
    }

    /// Drains up to `out.len()` queued completions into `out` under one
    /// queue lock, without blocking and without allocating. Returns how
    /// many entries were written: `out[..n]` is overwritten, the rest is
    /// left untouched. The amortized reaping primitive of the burst
    /// datapath — callers keep one scratch `[Cqe]` alive across reaps
    /// instead of paying a `Vec` per poll round.
    pub fn poll_into(&self, out: &mut [Cqe]) -> usize {
        if out.is_empty() {
            return 0;
        }
        let mut q = self.inner.queue.lock();
        let mut n = 0;
        while n < out.len() {
            match q.pop_front() {
                Some(cqe) => {
                    out[n] = cqe;
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// Polls until `n` completions arrive or `timeout` elapses.
    /// Implemented over [`poll_into`](Cq::poll_into): queued entries drain
    /// in one lock round, and only the waits in between block (and record
    /// `poll_wait_nanos`). On a timeout nothing is lost: the entries
    /// already taken go back to the head of the queue, in their order,
    /// ahead of anything pushed meanwhile.
    pub fn poll_n(&self, n: usize, timeout: Duration) -> IwarpResult<Vec<Cqe>> {
        if n == 0 {
            // An empty Vec never allocates; return it without taking the
            // queue lock or reading the clock.
            return Ok(Vec::new());
        }
        let deadline = Instant::now() + timeout;
        let mut out = vec![Cqe::default(); n];
        let mut filled = self.poll_into(&mut out);
        while filled < n {
            let now = Instant::now();
            let next = if now >= deadline {
                Err(IwarpError::PollTimeout)
            } else {
                self.poll_timeout(deadline - now)
            };
            match next {
                Ok(cqe) => out[filled] = cqe,
                Err(e) => {
                    self.unpoll(out.drain(..filled));
                    return Err(e);
                }
            }
            filled += 1;
            filled += self.poll_into(&mut out[filled..]);
        }
        Ok(out)
    }

    /// Puts polled entries back at the head of the queue, in their order.
    /// They were counted when pushed, so nothing is counted again, and
    /// they may take the queue past its capacity.
    fn unpoll(&self, cqes: impl DoubleEndedIterator<Item = Cqe>) {
        let mut q = self.inner.queue.lock();
        for cqe in cqes.rev() {
            q.push_front(cqe);
        }
        drop(q);
        self.inner.cv.notify_all();
    }

    /// Entries currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// True when no completions are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of completions dropped to overflow since creation.
    #[must_use]
    pub fn overflows(&self) -> u64 {
        self.inner.overflows.load(Ordering::Relaxed)
    }

    /// Maximum number of outstanding entries this CQ can hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity as usize
    }

    /// Records `n` work completions retired *without* a CQE because their
    /// WR was posted unsignaled (selective signaling, `sq_sig_all=0`).
    /// Exported as `core.cq.unsignaled_retired`.
    pub fn retire_unsignaled(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.inner
            .unsignaled_retired
            .fetch_add(n, Ordering::Relaxed);
        if let Some(m) = self.metrics() {
            m.cq_unsignaled_retired.add(n);
        }
    }

    /// Completions retired without a CQE since creation (unsignaled WRs).
    #[must_use]
    pub fn unsignaled_retired(&self) -> u64 {
        self.inner.unsignaled_retired.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Cq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cq")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cqe(wr_id: u64) -> Cqe {
        Cqe {
            wr_id,
            opcode: CqeOpcode::Send,
            status: CqeStatus::Success,
            byte_len: 0,
            src: None,
            write_record: None,
            imm: None,
            solicited: false,
        }
    }

    #[test]
    fn fifo_order() {
        let cq = Cq::new(16);
        for i in 0..5 {
            cq.push(cqe(i));
        }
        for i in 0..5 {
            assert_eq!(cq.poll().unwrap().wr_id, i);
        }
        assert!(cq.poll().is_none());
    }

    #[test]
    fn poll_timeout_expires() {
        let cq = Cq::new(4);
        let t0 = Instant::now();
        let err = cq.poll_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, IwarpError::PollTimeout);
        assert!(t0.elapsed() >= Duration::from_millis(18));
    }

    #[test]
    fn poll_wakes_on_push() {
        let cq = Cq::new(4);
        std::thread::scope(|s| {
            let cq2 = cq.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                cq2.push(cqe(42));
            });
            let got = cq.poll_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got.wr_id, 42);
        });
    }

    #[test]
    fn overflow_counts_and_drops() {
        let cq = Cq::new(2);
        cq.push(cqe(0));
        cq.push(cqe(1));
        cq.push(cqe(2));
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.overflows(), 1);
    }

    #[test]
    fn poll_n_collects() {
        let cq = Cq::new(16);
        for i in 0..3 {
            cq.push(cqe(i));
        }
        let got = cq.poll_n(3, Duration::from_millis(100)).unwrap();
        assert_eq!(got.len(), 3);
        assert!(cq.poll_n(1, Duration::from_millis(10)).is_err());
    }

    #[test]
    fn poll_n_timeout_puts_back_what_it_took() {
        let cq = Cq::new(16);
        cq.push(cqe(1));
        cq.push(cqe(2));
        let err = cq.poll_n(3, Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, IwarpError::PollTimeout);
        assert_eq!(cq.poll().unwrap().wr_id, 1);
        assert_eq!(cq.poll().unwrap().wr_id, 2);
        assert!(cq.poll().is_none());
    }

    #[test]
    fn poll_n_zero_is_instant_and_empty() {
        let cq = Cq::new(4);
        cq.push(cqe(7));
        let got = cq.poll_n(0, Duration::ZERO).unwrap();
        assert!(got.is_empty());
        // The queued entry was not consumed.
        assert_eq!(cq.len(), 1);
    }

    #[test]
    fn poll_into_drains_without_blocking() {
        let cq = Cq::new(16);
        for i in 0..3 {
            cq.push(cqe(i));
        }
        let mut buf = vec![Cqe::default(); 8];
        assert_eq!(cq.poll_into(&mut buf), 3);
        assert_eq!(buf[0].wr_id, 0);
        assert_eq!(buf[2].wr_id, 2);
        // Empty queue: immediate zero, buffer untouched.
        buf[0].wr_id = 99;
        assert_eq!(cq.poll_into(&mut buf), 0);
        assert_eq!(buf[0].wr_id, 99);
        assert_eq!(cq.poll_into(&mut []), 0);
    }

    #[test]
    fn push_batch_matches_push_bookkeeping() {
        let cq = Cq::new(2);
        cq.push_batch((0..4).map(cqe));
        assert_eq!(cq.len(), 2, "capacity still enforced per entry");
        assert_eq!(cq.overflows(), 2);
        assert_eq!(cq.poll().unwrap().wr_id, 0);
        assert_eq!(cq.poll().unwrap().wr_id, 1);
        // An empty batch is a no-op.
        cq.push_batch(Vec::new());
        assert!(cq.poll().is_none());
    }

    #[test]
    fn push_batch_wakes_blocked_poller() {
        let cq = Cq::new(16);
        std::thread::scope(|s| {
            let cq2 = cq.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                cq2.push_batch(vec![cqe(1), cqe(2)]);
            });
            let got = cq.poll_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(got.wr_id, 1);
        });
    }

    #[test]
    fn push_batch_solicited_wakes_waiter() {
        let cq = Cq::new(16);
        let mut batch: Vec<Cqe> = vec![cqe(1), cqe(2)];
        batch[1].solicited = true;
        cq.push_batch(batch);
        cq.wait_solicited(Duration::from_millis(100)).unwrap();
    }
}
