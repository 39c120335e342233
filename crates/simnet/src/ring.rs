//! The lock-free delivery ring under the per-link fabric datapath.
//!
//! The vendored shims provide no ring primitive, so the per-link fabric
//! builds its own from two layers:
//!
//! * [`Mpsc`] — a Vyukov-style bounded queue with a per-slot sequence
//!   word. This is the fan-in variant the fabric's delivery rings use: a
//!   bound link can legally be sent to by *any* number of concurrent
//!   endpoints, so the general case is multi-producer. (The algorithm is
//!   in fact MPMC-safe on both sides, which keeps any future misuse a
//!   performance bug rather than undefined behaviour.)
//! * [`RingChannel`] — the delivery channel built on [`Mpsc`]: a bounded
//!   lock-free fast path plus an ordered overflow spill (so the channel
//!   as a whole keeps the unbounded UDP-queue semantics the stack's
//!   conduits rely on) and a condvar waiter for blocking consumers.
//!   Producers never block; a full ring diverts to the spill queue and is
//!   counted (`fabric.ring_full_retries`).
//!
//! A drained [`Mpsc`] is a valid empty ring at whatever position it
//! stopped: each slot's sequence word already names the lap its next push
//! expects. So the fabric reuses the rings of dropped links
//! (`RingChannel::take_ring`, then `RingChannel::with_ring`) without
//! touching a slot.
//!
//! Ordering contract: FIFO per producer everywhere. [`RingChannel`]
//! additionally preserves the order of any two pushes that are themselves
//! ordered by a happens-before edge (the spill flag is flipped under the
//! overflow mutex and re-checked there, so a push that *completed* before
//! another began is never overtaken); only genuinely concurrent pushes —
//! which have no order to preserve — may land in either order.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Pads a hot atomic to its own cache line so producer and consumer
/// cursors don't false-share.
#[repr(align(64))]
struct Pad<T>(T);

fn cap_pow2(capacity: usize) -> usize {
    capacity.max(2).next_power_of_two()
}

// ---------------------------------------------------------------------------
// MPSC (Vyukov bounded queue): the fan-in delivery ring.
// ---------------------------------------------------------------------------

struct MpscSlot<T> {
    seq: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded multi-producer queue with per-slot sequence words (Vyukov's
/// bounded MPMC algorithm). Used single-consumer by the fabric — each
/// bound link's delivery ring fans in from every transmitting endpoint —
/// but safe with concurrent consumers too.
pub struct Mpsc<T> {
    buf: Box<[MpscSlot<T>]>,
    mask: usize,
    enqueue_pos: Pad<AtomicUsize>,
    dequeue_pos: Pad<AtomicUsize>,
}

unsafe impl<T: Send> Sync for Mpsc<T> {}
unsafe impl<T: Send> Send for Mpsc<T> {}

impl<T> Mpsc<T> {
    /// A ring with no slots, left behind by [`RingChannel::take_ring`]:
    /// it allocates nothing and is only ever dropped.
    fn shell() -> Self {
        Self {
            buf: Box::new([]),
            mask: 0,
            enqueue_pos: Pad(AtomicUsize::new(0)),
            dequeue_pos: Pad(AtomicUsize::new(0)),
        }
    }

    /// Creates a queue of at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let cap = cap_pow2(capacity);
        let buf: Box<[MpscSlot<T>]> = (0..cap)
            .map(|i| MpscSlot {
                seq: AtomicUsize::new(i),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            buf,
            mask: cap - 1,
            enqueue_pos: Pad(AtomicUsize::new(0)),
            dequeue_pos: Pad(AtomicUsize::new(0)),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Pushes one value; returns it back if the queue is full.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.val.get()).write(v) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return Err(v); // full: the slot is a full lap behind
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest value, if any.
    pub fn try_pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let v = unsafe { (*slot.val.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(v);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None; // empty
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Queued items (racy estimate, exact when quiescent).
    #[must_use]
    pub fn len(&self) -> usize {
        let enq = self.enqueue_pos.0.load(Ordering::Acquire);
        let deq = self.dequeue_pos.0.load(Ordering::Acquire);
        enq.wrapping_sub(deq).min(self.mask + 1)
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let deq = self.dequeue_pos.0.load(Ordering::Acquire);
        let enq = self.enqueue_pos.0.load(Ordering::Acquire);
        enq == deq
    }
}

impl<T> Drop for Mpsc<T> {
    fn drop(&mut self) {
        // Exclusive access at drop: release everything still queued. The
        // emptiness check reads only the cursors, so a shell (no slots)
        // is never indexed.
        while !self.is_empty() && self.try_pop().is_some() {}
    }
}

// ---------------------------------------------------------------------------
// Deadline: when a blocking pop gives up.
// ---------------------------------------------------------------------------

/// When a blocking pop gives up. A caller that waits more than once for
/// one result (a reassembly loop, say) hands the same `Deadline` to each
/// wait: the first wait that has to park fixes it to an [`Instant`], and
/// every later one counts down to that instant. So a pop that finds a
/// value reads no clock, and a parking pop reads it once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deadline {
    /// Wait for as long as it takes.
    Never,
    /// Wait this long from the first wait that parks.
    After(Duration),
    /// Wait until this instant.
    At(Instant),
}

impl Deadline {
    /// `After(t)` for `Some(t)`, `Never` for `None`.
    #[must_use]
    pub fn within(timeout: Option<Duration>) -> Self {
        timeout.map_or(Self::Never, Self::After)
    }

    /// The time left (`None`: forever), fixing `After` to `At`. Reads the
    /// clock once, and not at all for `Never` or a zero `After`.
    fn left(&mut self) -> Option<Duration> {
        match *self {
            Self::Never => None,
            Self::After(t) if t.is_zero() => Some(t),
            Self::After(t) => {
                *self = Self::At(Instant::now() + t);
                Some(t)
            }
            Self::At(d) => Some(d.saturating_duration_since(Instant::now())),
        }
    }
}

// ---------------------------------------------------------------------------
// RingChannel: delivery channel = MPSC ring + ordered spill + waiter.
// ---------------------------------------------------------------------------

/// Where a [`RingChannel::push`] landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// Fast path: straight into the lock-free ring.
    Ring,
    /// The ring was full; the value took the ordered overflow spill.
    Spilled,
}

/// Error returned when pushing to a closed channel; carries the value
/// back so the caller can account for it.
#[derive(Debug)]
pub struct ChannelClosed<T>(pub T);

/// Why a blocking pop returned empty-handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopError {
    /// Nothing arrived before the deadline.
    Timeout,
    /// The channel is closed and drained.
    Closed,
}

/// The per-link delivery channel: a bounded lock-free [`Mpsc`] fast path
/// with an ordered overflow spill and a condvar waiter.
///
/// Producers never block: when the ring is full the value is appended to
/// a mutex-guarded spill queue and the channel enters *spill mode*. The
/// consumer drains ring-then-spill under that same mutex while the mode
/// is active (ring contents are always older than the spill, see below)
/// and drops back to the lock-free path once the spill is empty. The
/// spill flag is set and re-checked under the overflow mutex, so any two
/// pushes ordered by happens-before retain their order; the fast path is
/// only taken when the flag is observably clear.
pub struct RingChannel<T> {
    ring: Mpsc<T>,
    /// True while the overflow spill may be non-empty. Invariant: a
    /// non-empty spill implies the flag is set (both are updated under
    /// the overflow mutex).
    spill: AtomicBool,
    overflow: Mutex<VecDeque<T>>,
    ovf_len: AtomicUsize,
    closed: AtomicBool,
    /// Consumers currently parked (or about to park) on `cv`.
    sleepers: AtomicUsize,
    gate: Mutex<()>,
    cv: Condvar,
}

impl<T> RingChannel<T> {
    /// Creates a channel whose lock-free ring holds at least `capacity`
    /// values.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_ring(Mpsc::new(capacity))
    }

    /// Creates a channel on `ring`, an empty ring from
    /// [`take_ring`](Self::take_ring) or [`Mpsc::new`].
    pub(crate) fn with_ring(ring: Mpsc<T>) -> Self {
        debug_assert!(ring.is_empty(), "a reused ring must come back empty");
        Self {
            ring,
            spill: AtomicBool::new(false),
            overflow: Mutex::new(VecDeque::new()),
            ovf_len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Ring (fast-path) capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Pushes a value, never blocking. Returns where it landed, or the
    /// value back if the channel is closed.
    pub fn push(&self, v: T) -> Result<PushOutcome, ChannelClosed<T>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(ChannelClosed(v));
        }
        let mut v = v;
        let outcome = 'push: {
            if !self.spill.load(Ordering::Acquire) {
                match self.ring.try_push(v) {
                    Ok(()) => break 'push PushOutcome::Ring,
                    Err(back) => v = back,
                }
            }
            let mut ovf = self.overflow.lock();
            if !self.spill.load(Ordering::Relaxed) {
                // The consumer may have drained the ring since the failed
                // fast-path attempt (or cleared a stale flag): retry once
                // under the mutex before committing to spill mode.
                match self.ring.try_push(v) {
                    Ok(()) => break 'push PushOutcome::Ring,
                    Err(back) => {
                        v = back;
                        self.spill.store(true, Ordering::Release);
                    }
                }
            }
            ovf.push_back(v);
            self.ovf_len.store(ovf.len(), Ordering::Release);
            PushOutcome::Spilled
        };
        self.wake();
        Ok(outcome)
    }

    /// Pushes a whole batch with at most **one** overflow-lock round,
    /// preserving batch order. The burst datapath's amortization lever:
    /// under a sustained backlog (spill mode) [`push`](Self::push) pays
    /// the overflow mutex per value, this pays it per batch.
    ///
    /// Returns `(ring, spilled)` counts. When the channel is closed the
    /// batch is left untouched and `None` is returned so the caller can
    /// account for every value.
    pub fn push_batch(&self, batch: &mut VecDeque<T>) -> Option<(usize, usize)> {
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        let total = batch.len();
        if total == 0 {
            return Some((0, 0));
        }
        let mut ringed = 0usize;
        // Lock-free prefix: ring values while the spill flag stays clear.
        // The flag is re-read per value — once any value of this batch
        // (or a concurrent producer's) spills, the rest must follow it
        // into the overflow to keep ring contents older than the spill.
        while !self.spill.load(Ordering::Acquire) {
            let Some(v) = batch.pop_front() else { break };
            match self.ring.try_push(v) {
                Ok(()) => ringed += 1,
                Err(back) => {
                    batch.push_front(back);
                    break;
                }
            }
        }
        if !batch.is_empty() {
            let mut ovf = self.overflow.lock();
            if !self.spill.load(Ordering::Relaxed) {
                // The consumer may have drained the ring since the failed
                // fast-path attempt: retry under the mutex before
                // committing the remainder to spill mode.
                while let Some(v) = batch.pop_front() {
                    match self.ring.try_push(v) {
                        Ok(()) => ringed += 1,
                        Err(back) => {
                            batch.push_front(back);
                            self.spill.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
            }
            if !batch.is_empty() {
                ovf.extend(batch.drain(..));
                self.ovf_len.store(ovf.len(), Ordering::Release);
            }
        }
        self.wake();
        Some((ringed, total - ringed))
    }

    fn wake(&self) {
        // Dekker pairing with `pop_wait`: the value is published above,
        // the sleeper count was bumped (SeqCst RMW) before its final
        // emptiness re-check.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            // Wake after release. A sleeper registers and re-checks under
            // `gate`, then waits, and the wait releases `gate` atomically.
            // Taking and releasing `gate` here orders the notify after
            // that wait (or after a re-check that saw the value), so no
            // wake is lost. Notifying with `gate` already released means
            // the woken consumer never blocks on a lock its waker still
            // holds: on one core that second block costs two more context
            // switches per hand-off.
            drop(self.gate.lock());
            self.cv.notify_all();
        }
    }

    /// Pops the oldest value without blocking.
    pub fn try_pop(&self) -> Option<T> {
        if !self.spill.load(Ordering::Acquire) {
            return self.ring.try_pop();
        }
        // Spill mode: serialize with producers' spill appends. Ring
        // contents are older than every spilled value (pushes stop using
        // the ring the moment the flag is set), so drain ring first.
        let mut ovf = self.overflow.lock();
        if let Some(v) = self.ring.try_pop() {
            return Some(v);
        }
        match ovf.pop_front() {
            Some(v) => {
                self.ovf_len.store(ovf.len(), Ordering::Release);
                if ovf.is_empty() {
                    self.spill.store(false, Ordering::Release);
                }
                Some(v)
            }
            None => {
                // Stale flag (spill already drained): clear and retry the
                // ring once.
                self.spill.store(false, Ordering::Release);
                self.ring.try_pop()
            }
        }
    }

    /// Pops the oldest value, parking until `deadline` when the channel
    /// is empty. A pop that finds a value reads no clock; each park reads
    /// it once.
    pub fn pop_wait(&self, deadline: &mut Deadline) -> Result<T, PopError> {
        loop {
            if let Some(v) = self.try_pop() {
                return Ok(v);
            }
            if self.closed.load(Ordering::Acquire) {
                // Drain-after-close: one more look before reporting EOF.
                return self.try_pop().ok_or(PopError::Closed);
            }
            let left = deadline.left();
            if left == Some(Duration::ZERO) {
                return Err(PopError::Timeout);
            }
            let mut g = self.gate.lock();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            // Re-check after registering (Dekker pairing with `wake`).
            if !self.is_empty() || self.closed.load(Ordering::Acquire) {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(g);
                continue;
            }
            let timed_out = match left {
                None => {
                    self.cv.wait(&mut g);
                    false
                }
                Some(left) => self.cv.wait_for(&mut g, left).timed_out(),
            };
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            drop(g);
            if timed_out && self.is_empty() {
                return Err(PopError::Timeout);
            }
        }
    }

    /// Queued values across ring and spill (racy estimate, exact when
    /// quiescent).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len() + self.ovf_len.load(Ordering::Acquire)
    }

    /// True when both the ring and the spill are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty() && self.ovf_len.load(Ordering::Acquire) == 0
    }

    /// Marks the channel closed (new pushes fail; queued values remain
    /// poppable) and wakes every parked consumer.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Wake after release, as in `wake`: sleepers re-check `closed`
        // under `gate` before they wait.
        drop(self.gate.lock());
        self.cv.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the channel, drops every queued value (ring and spill) and
    /// takes the drained ring for [`with_ring`](Self::with_ring), leaving
    /// a slotless shell in its place. Only a drop may follow.
    pub(crate) fn take_ring(&mut self) -> Mpsc<T> {
        *self.closed.get_mut() = true;
        while self.ring.try_pop().is_some() {}
        self.overflow.get_mut().clear();
        std::mem::replace(&mut self.ring, Mpsc::shell())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    #[test]
    fn mpsc_fifo_and_full() {
        let q = Mpsc::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_push(9), Err(9));
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert!(q.try_pop().is_none());
    }

    #[test]
    fn ring_channel_spills_and_preserves_order() {
        let ch = RingChannel::new(4);
        let mut spilled = 0;
        for i in 0..20u32 {
            if ch.push(i).unwrap() == PushOutcome::Spilled {
                spilled += 1;
            }
        }
        assert!(spilled > 0, "4-slot ring must spill under 20 pushes");
        assert_eq!(ch.len(), 20);
        for i in 0..20u32 {
            assert_eq!(ch.try_pop(), Some(i), "spill broke FIFO");
        }
        assert!(ch.is_empty());
        // Spill mode must have cleared: the next push takes the ring.
        assert_eq!(ch.push(1).unwrap(), PushOutcome::Ring);
    }

    #[test]
    fn ring_channel_close_semantics() {
        let ch = RingChannel::new(4);
        ch.push(7u32).unwrap();
        ch.close();
        assert!(matches!(ch.push(8), Err(ChannelClosed(8))));
        assert_eq!(ch.pop_wait(&mut Deadline::Never), Ok(7));
        assert_eq!(ch.pop_wait(&mut Deadline::Never), Err(PopError::Closed));
    }

    #[test]
    fn pop_wait_times_out_then_wakes() {
        let ch = Arc::new(RingChannel::new(4));
        assert_eq!(
            ch.pop_wait(&mut Deadline::After(Duration::from_millis(5))),
            Err(PopError::Timeout)
        );
        let ch2 = Arc::clone(&ch);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                ch2.push(42u32).unwrap();
            });
            let mut deadline = Deadline::After(Duration::from_secs(5));
            assert_eq!(ch.pop_wait(&mut deadline), Ok(42));
            assert!(
                matches!(deadline, Deadline::At(_)),
                "a pop that parked fixes its deadline"
            );
        });
    }

    #[test]
    fn a_pop_that_finds_a_value_leaves_its_deadline_unfixed() {
        let ch = RingChannel::new(4);
        ch.push(1u32).unwrap();
        let mut deadline = Deadline::After(Duration::from_secs(5));
        assert_eq!(ch.pop_wait(&mut deadline), Ok(1));
        assert_eq!(deadline, Deadline::After(Duration::from_secs(5)));
        // A zero wait times out without parking or fixing anything.
        let mut zero = Deadline::After(Duration::ZERO);
        assert_eq!(ch.pop_wait(&mut zero), Err(PopError::Timeout));
        assert_eq!(zero, Deadline::After(Duration::ZERO));
        // A deadline already past times out too.
        let mut past = Deadline::At(Instant::now());
        assert_eq!(ch.pop_wait(&mut past), Err(PopError::Timeout));
    }

    /// Counts its drops, so a test sees every queued value released once.
    struct Token(u32, Arc<AtomicUsize>);

    impl Drop for Token {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_taken_ring_comes_back_empty_and_keeps_the_channel_contract() {
        let drops = Arc::new(AtomicUsize::new(0));
        let token = |i| Token(i, Arc::clone(&drops));
        let mut ch = RingChannel::new(4);
        // Several laps, so the cursors stop mid-lap, away from zero.
        for i in 0..27 {
            ch.push(token(i)).map_err(|_| ()).unwrap();
            assert_eq!(ch.try_pop().map(|t| t.0), Some(i));
        }
        // Queued in the ring and in the spill when the ring is taken.
        let spilled = (0..10)
            .filter(|&i| ch.push(token(i)).map_err(|_| ()).unwrap() == PushOutcome::Spilled)
            .count();
        assert_eq!(spilled, 6);
        let ring = ch.take_ring();
        assert_eq!(drops.load(Ordering::SeqCst), 37, "each value dropped once");
        assert!(ring.is_empty());
        assert_eq!(ring.capacity(), 4);
        // The shell left behind drops without touching a slot.
        drop(ch);

        let ch = RingChannel::with_ring(ring);
        assert!(ch.is_empty() && !ch.is_closed());
        for lap in 0..3 {
            let outcomes: Vec<PushOutcome> = (0..7)
                .map(|i| ch.push(token(lap * 10 + i)).map_err(|_| ()).unwrap())
                .collect();
            assert_eq!(outcomes[..4], [PushOutcome::Ring; 4]);
            assert_eq!(outcomes[4..], [PushOutcome::Spilled; 3]);
            for i in 0..7 {
                assert_eq!(ch.try_pop().map(|t| t.0), Some(lap * 10 + i), "FIFO");
            }
            assert!(ch.is_empty());
        }
        assert_eq!(
            ch.push(token(99)).map_err(|_| ()).unwrap(),
            PushOutcome::Ring
        );
        ch.close();
        assert!(ch.push(token(100)).is_err());
        assert_eq!(ch.pop_wait(&mut Deadline::Never).map(|t| t.0), Ok(99));
        assert!(matches!(
            ch.pop_wait(&mut Deadline::Never),
            Err(PopError::Closed)
        ));
        drop(ch);
        assert_eq!(drops.load(Ordering::SeqCst), 37 + 21 + 2);
    }

    #[test]
    fn a_shell_drops_without_indexing_its_empty_slots() {
        drop(Mpsc::<Token>::shell());
        let mut ch = RingChannel::<u32>::new(2);
        ch.push(1).unwrap();
        drop(ch.take_ring());
        drop(ch);
    }
}
