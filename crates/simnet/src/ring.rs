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
        // Exclusive access at drop: release everything still queued.
        while self.try_pop().is_some() {}
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
        Self {
            ring: Mpsc::new(capacity),
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
            let _g = self.gate.lock();
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

    /// Pops the oldest value, parking up to `timeout` (`None` = forever)
    /// when the channel is empty.
    pub fn pop_wait(&self, timeout: Option<Duration>) -> Result<T, PopError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(v) = self.try_pop() {
                return Ok(v);
            }
            if self.closed.load(Ordering::Acquire) {
                // Drain-after-close: one more look before reporting EOF.
                return self.try_pop().ok_or(PopError::Closed);
            }
            let mut g = self.gate.lock();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            // Re-check after registering (Dekker pairing with `wake`).
            if !self.is_empty() || self.closed.load(Ordering::Acquire) {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                drop(g);
                continue;
            }
            let timed_out = match deadline {
                None => {
                    self.cv.wait(&mut g);
                    false
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        self.sleepers.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                        return Err(PopError::Timeout);
                    }
                    self.cv.wait_for(&mut g, d - now).timed_out()
                }
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
        let _g = self.gate.lock();
        self.cv.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
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
        assert_eq!(ch.pop_wait(None), Ok(7));
        assert_eq!(ch.pop_wait(None), Err(PopError::Closed));
    }

    #[test]
    fn pop_wait_times_out_then_wakes() {
        let ch = Arc::new(RingChannel::new(4));
        assert_eq!(
            ch.pop_wait(Some(Duration::from_millis(5))),
            Err(PopError::Timeout)
        );
        let ch2 = Arc::clone(&ch);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                ch2.push(42u32).unwrap();
            });
            assert_eq!(ch.pop_wait(Some(Duration::from_secs(5))), Ok(42));
        });
    }
}
