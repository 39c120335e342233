//! The engine gate: which thread runs a threaded datagram QP's receive
//! engine.
//!
//! A threaded UD or RD QP has up to three drivers: a thread waiting in
//! [`Cq::poll_timeout`](crate::cq::Cq::poll_timeout) on its receive CQ,
//! the QP's fallback thread (`iwarp-dgqp-<qpn>`), and a
//! [`progress`](crate::qp::DatagramQp::progress) caller. The conduit's
//! delivery ring has one consumer, so at most one of them may touch it at
//! a time. The gate is one atomic word, kept inline in the QP's engine
//! state so that it costs no allocation:
//!
//! * `BUSY`: a thread holds the engine;
//! * `DROVE`: a CQ waiter has run the engine since the fallback last ran
//!   (an arrival that finds nobody waiting is then left for that owner);
//! * `SHUT`: the QP is being dropped, or its LLP died; nobody takes the
//!   engine again;
//! * the high bits count the waiters parked on the receive CQ.
//!
//! Every operation is `SeqCst`: the parking and release paths pair with
//! the delivery ring's push (Dekker style), so either the arrival sees
//! the waiter or the waiter sees the arrival.

use std::sync::atomic::{fence, AtomicU32, Ordering::SeqCst};

const BUSY: u32 = 1;
const DROVE: u32 = 1 << 1;
const SHUT: u32 = 1 << 2;
/// One parked waiter, in the count held above the flag bits.
const PARKED: u32 = 1 << 3;

/// Who gives the engine back, which decides what happens to `DROVE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Driver {
    /// A CQ waiter: sets `DROVE`.
    Waiter,
    /// The fallback thread: clears `DROVE`.
    Fallback,
    /// A `progress` caller: leaves `DROVE` as it is.
    Progress,
}

/// What the gate word said at one instant.
#[derive(Clone, Copy, Debug)]
pub(crate) struct GateState(u32);

impl GateState {
    /// Someone holds the engine, or nobody may take it again.
    pub(crate) fn closed(self) -> bool {
        self.0 & (BUSY | SHUT) != 0
    }

    /// A waiter has run the engine since the fallback last ran.
    pub(crate) fn owner_drove(self) -> bool {
        self.0 & DROVE != 0
    }

    /// Waiters parked on the receive CQ.
    pub(crate) fn parked(self) -> u32 {
        self.0 / PARKED
    }
}

/// The engine gate of one threaded datagram QP (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct EngineGate(AtomicU32);

impl EngineGate {
    /// The word now.
    pub(crate) fn state(&self) -> GateState {
        GateState(self.0.load(SeqCst))
    }

    /// Takes the engine unless another thread holds it or the QP is shut.
    pub(crate) fn try_acquire(&self) -> bool {
        self.0
            .fetch_update(SeqCst, SeqCst, |w| {
                (w & (BUSY | SHUT) == 0).then_some(w | BUSY)
            })
            .is_ok()
    }

    /// Gives the engine back. The fence orders the release before the
    /// caller's look at the delivery ring.
    pub(crate) fn release(&self, by: Driver) {
        let _ = self.0.fetch_update(SeqCst, SeqCst, |w| {
            let w = w & !BUSY;
            Some(match by {
                Driver::Waiter => w | DROVE,
                Driver::Fallback => w & !DROVE,
                Driver::Progress => w,
            })
        });
        fence(SeqCst);
    }

    /// Counts a waiter as parked. The fence orders the count before the
    /// waiter's last look at the delivery ring.
    pub(crate) fn park(&self) {
        self.0.fetch_add(PARKED, SeqCst);
        fence(SeqCst);
    }

    /// Undoes [`Self::park`].
    pub(crate) fn unpark(&self) {
        self.0.fetch_sub(PARKED, SeqCst);
    }

    /// Closes the gate for good; a holder keeps the engine until it
    /// releases it.
    pub(crate) fn shut(&self) {
        self.0.fetch_or(SHUT, SeqCst);
    }

    /// True once [`Self::shut`] ran.
    pub(crate) fn is_shut(&self) -> bool {
        self.0.load(SeqCst) & SHUT != 0
    }

    /// After [`Self::shut`]: waits out the holder, if any. A holder runs
    /// one bounded batch drain, so this yields a few times at most.
    pub(crate) fn wait_idle(&self) {
        while self.0.load(SeqCst) & BUSY != 0 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_holder_at_a_time_and_none_after_shut() {
        let g = EngineGate::default();
        assert!(g.try_acquire());
        assert!(!g.try_acquire());
        assert!(g.state().closed());
        g.release(Driver::Waiter);
        assert!(g.state().owner_drove());
        assert!(g.try_acquire());
        g.release(Driver::Fallback);
        assert!(!g.state().owner_drove());
        g.shut();
        assert!(!g.try_acquire());
        assert!(g.is_shut());
        g.wait_idle();
    }

    #[test]
    fn parked_count_leaves_the_flags_alone() {
        let g = EngineGate::default();
        g.park();
        g.park();
        assert!(g.try_acquire());
        assert_eq!(g.state().parked(), 2);
        g.unpark();
        g.release(Driver::Progress);
        let s = g.state();
        assert_eq!(s.parked(), 1);
        assert!(!s.closed() && !s.owner_drove());
    }
}
