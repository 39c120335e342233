//! `Driver` — the one drive engine of both reliable conduits,
//! [`RdConduit`](crate::rdgram::RdConduit) and
//! [`StreamConduit`](crate::stream::StreamConduit).
//!
//! **Progress is the owner's.** A reliable conduit has no thread: a call
//! that waits on it runs its protocol, one caller at a time, while the
//! other callers sleep on the one condvar. A drive step waits on the lower
//! layer for at most the caller's budget and the protocol's next deadline,
//! then feeds every queued input through the protocol and ends the step
//! (timers, output) in one lock scope. So a conduit progresses only while
//! its owner is inside a call on it, as a poll-mode QP or an RNIC's
//! progress engine: a sender that stops calling must `flush` its tail
//! while its peer is inside a call to acknowledge it.
//!
//! **The release rule.** Output is built under the state lock, and every
//! scope ends in the release step: take the output, unlock, send, then
//! notify the sleepers if the scope raised [`Locked::wake`]. A drive step
//! releases before its wait, a call as it returns (a returning driver
//! also wakes the sleepers so that one takes over), and a caller about to
//! sleep sends what its poll queued, then polls again. Nothing is sent or
//! notified under the lock: on one core, a woken peer that preempted the
//! lock holder would block on it. Output of two releases may interleave
//! on the wire; each protocol reorders it.
//!
//! **The clock is the driver's.** A driver keeps one epoch and is the only
//! reader of the wall clock on its conduit: a protocol core is told the
//! time, as a [`Duration`] since that epoch, and its timers are deadlines
//! on that clock. A lock scope reads the clock at most once, on first use
//! ([`Clock`]), so a scope that needs no time reads none, and a call whose
//! first poll yields reads no clock at all. A drive step reads it once,
//! after the lower-layer wait returns: that one read is the `now` of every
//! input the step handles, of the step's end, and of the caller's next
//! poll and budget check, all in the same scope. The driver also does the
//! one piece of deadline arithmetic: a step waits until the core's
//! [`next_deadline`](Protocol::next_deadline), at most the core's
//! [`IDLE`](Protocol::IDLE) and at least its [`FLOOR`](Protocol::FLOOR).

use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{NetError, NetResult};

/// A protocol core: what a reliable conduit adds to the drive engine.
pub(crate) trait Protocol {
    /// The state behind the driver's lock.
    type State;
    /// One input from the lower layer.
    type Input;
    /// What one release takes from the state and sends.
    type Output;
    /// Longest a drive step waits when no timer is due sooner: bounds how
    /// late a timer armed by another caller's scope is noticed.
    const IDLE: Duration;
    /// Shortest a drive step waits for a timer.
    const FLOOR: Duration;

    /// Waits at most `wait` for the next input.
    fn recv(&self, wait: Duration) -> NetResult<Self::Input>;
    /// The next input already queued.
    fn try_recv(&self) -> NetResult<Self::Input>;
    /// Handles one input that arrived by `now`.
    fn on_input(&self, st: &mut Locked<Self::State>, input: Self::Input, now: Duration);
    /// Ends a drive step at `now`; `lower` is its wait's error, timeouts
    /// aside.
    fn after_step(&self, st: &mut Locked<Self::State>, lower: NetResult<()>, now: Duration);
    /// The earliest timer deadline, on the driver's clock, if any.
    fn next_deadline(&self, st: &Self::State) -> Option<Duration>;
    /// Takes the scope's output, if any, under the lock.
    fn take_output(&self, st: &mut Self::State) -> Option<Self::Output>;
    /// Sends taken output, after the unlock.
    fn send(&self, out: Self::Output);
    /// Runs after a returning driver's release, once the drive step is
    /// free: a core with an engine above it that waits outside the
    /// conduit tells that engine here about input still queued.
    fn handed_off(&self) {}
}

/// What a driver's lock guards: the protocol state, to which it
/// dereferences, and the engine's own fields.
pub(crate) struct Locked<S> {
    st: S,
    /// The scope changed something a sleeper may wait for.
    pub(crate) wake: bool,
    /// A caller holds the drive step.
    driving: bool,
    /// Callers asleep on `Driver::cv`; nobody is notified when zero.
    sleepers: u32,
}

impl<S> Deref for Locked<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.st
    }
}

impl<S> DerefMut for Locked<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.st
    }
}

/// The driver's clock as one lock scope sees it: the time since the
/// driver's epoch, read on first use and then fixed for the scope.
#[derive(Clone, Copy)]
pub(crate) struct Clock {
    epoch: Instant,
    read: Option<Duration>,
}

impl Clock {
    /// The scope's time; the first call reads the wall clock.
    pub(crate) fn now(&mut self) -> Duration {
        *self.read.get_or_insert_with(|| {
            #[cfg(test)]
            tests::CLOCK_READS.with(|n| n.set(n.get() + 1));
            self.epoch.elapsed()
        })
    }
}

/// A protocol core and its state behind one lock, with the condvar where
/// callers that are not driving sleep, and the conduit's one clock.
pub(crate) struct Driver<P: Protocol> {
    pub(crate) core: P,
    st: Mutex<Locked<P::State>>,
    cv: Condvar,
    /// Never read itself: each scope starts from a copy.
    clock: Clock,
}

type Guard<'a, P> = MutexGuard<'a, Locked<<P as Protocol>::State>>;

impl<P: Protocol> Driver<P> {
    pub(crate) fn new(core: P, st: P::State) -> Self {
        let st = Locked {
            st,
            wake: false,
            driving: false,
            sleepers: 0,
        };
        Self {
            core,
            st: Mutex::new(st),
            cv: Condvar::new(),
            clock: Clock {
                epoch: Instant::now(),
                read: None,
            },
        }
    }

    /// The time on the driver's clock, read now and outside any scope:
    /// what a reader that takes no lock compares a deadline the core
    /// published with.
    pub(crate) fn now(&self) -> Duration {
        let mut clock = self.clock;
        clock.now()
    }

    /// A look at the state, and at whether a caller holds the drive step,
    /// in a lock scope that changes nothing and so has nothing to release.
    pub(crate) fn peek<T>(&self, f: impl FnOnce(&P::State, bool) -> T) -> T {
        let st = self.st.lock();
        f(&st.st, st.driving)
    }

    /// Runs `f` in one lock scope, which ends in the release step.
    pub(crate) fn scope<T>(&self, f: impl FnOnce(&mut P::State, &mut Clock) -> T) -> T {
        let (mut st, mut clock) = (self.st.lock(), self.clock);
        let out = f(&mut st.st, &mut clock);
        self.release(st);
        out
    }

    /// The release step (see the module doc).
    fn release(&self, mut st: Guard<'_, P>) {
        let out = self.core.take_output(&mut st);
        let notify = std::mem::take(&mut st.wake) && st.sleepers > 0;
        drop(st);
        if let Some(out) = out {
            self.core.send(out);
        }
        if notify {
            self.cv.notify_all();
        }
    }

    /// Runs `poll` in one lock scope after another until it yields or
    /// `budget` (`None`: no limit) runs out, driving between polls if no
    /// other caller does and sleeping otherwise. `poll` gets its scope's
    /// [`Clock`]. The deadline is built at the first miss, so a call whose
    /// first poll yields reads no clock unless the poll does, and a driver
    /// polls after at least one step, so a zero budget still runs one.
    pub(crate) fn wait_until<T>(
        &self,
        budget: Option<Duration>,
        mut poll: impl FnMut(&mut P::State, &mut Clock) -> Option<NetResult<T>>,
    ) -> NetResult<T> {
        let mut st = self.st.lock();
        let mut clock = self.clock;
        let mut driver = false;
        let mut deadline = None;
        let out = loop {
            if let Some(out) = poll(&mut st.st, &mut clock) {
                break out;
            }
            let left = budget.map(|t| {
                let now = clock.now();
                deadline.get_or_insert(now + t).saturating_sub(now)
            });
            // A spent budget ends the call, unless the drive step is free:
            // then the caller takes it once.
            if left == Some(Duration::ZERO) && st.driving {
                break Err(NetError::Timeout);
            }
            if driver || !st.driving {
                driver = true;
                st.driving = true;
                st = self.step(st, left, &mut clock);
                continue;
            }
            // A sleeper holds no output back: a poll that queued some (a
            // writer that pumped, then found its buffer full) sends it and
            // polls again.
            if let Some(out) = self.core.take_output(&mut st) {
                drop(st);
                self.core.send(out);
                st = self.st.lock();
                clock = self.clock;
                continue;
            }
            debug_assert!(!st.wake, "a wake held across a wait");
            st.sleepers += 1;
            match left {
                None => self.cv.wait(&mut st),
                Some(left) => {
                    self.cv.wait_for(&mut st, left);
                }
            }
            st.sleepers -= 1;
            clock = self.clock;
        };
        // A returning driver hands the drive step on.
        if driver {
            st.driving = false;
            st.wake = true;
        }
        self.release(st);
        if driver {
            self.core.handed_off();
        }
        out
    }

    /// One drive step, by the caller holding `driving`: releases, waits
    /// for at most `left` and the next deadline, then reads the clock into
    /// `clock`, handles every queued input and ends the step in one new
    /// scope.
    fn step(&self, st: Guard<'_, P>, left: Option<Duration>, clock: &mut Clock) -> Guard<'_, P> {
        let wait = self.core.next_deadline(&st).map_or(P::IDLE, |d| {
            d.saturating_sub(clock.now()).clamp(P::FLOOR, P::IDLE)
        });
        let wait = left.map_or(wait, |left| left.min(wait));
        self.release(st);
        let got = self.core.recv(wait);
        let mut st = self.st.lock();
        *clock = self.clock;
        let now = clock.now();
        let lower = match got {
            Ok(input) => {
                self.core.on_input(&mut st, input, now);
                while let Ok(input) = self.core.try_recv() {
                    self.core.on_input(&mut st, input, now);
                }
                Ok(())
            }
            Err(NetError::Timeout) => Ok(()),
            Err(e) => Err(e),
        };
        self.core.after_step(&mut st, lower, now);
        st
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};

    use super::*;

    thread_local! {
        /// Wall-clock reads by [`Clock::now`] on this thread.
        pub(super) static CLOCK_READS: Cell<usize> = const { Cell::new(0) };
    }

    /// The clock reads `f` makes on this thread.
    fn clock_reads(f: impl FnOnce()) -> usize {
        let before = CLOCK_READS.with(Cell::get);
        f();
        CLOCK_READS.with(Cell::get) - before
    }

    impl<P: Protocol> Driver<P> {
        /// Whether a caller holds the drive step.
        pub(crate) fn is_driven(&self) -> bool {
            self.st.lock().driving
        }

        /// Whether some thread holds the state lock.
        pub(crate) fn is_locked(&self) -> bool {
            self.st.try_lock().is_none()
        }

        /// Runs `f` on the core and its locked state outside any drive
        /// step, which is how a test calls a core at a time it makes up.
        pub(crate) fn with_locked<T>(&self, f: impl FnOnce(&P, &mut Locked<P::State>) -> T) -> T {
            f(&self.core, &mut self.st.lock())
        }
    }

    /// A protocol over a channel of numbers: every input is queued as
    /// output, and `send` logs what left.
    struct Fake {
        rx: Mutex<Receiver<u32>>,
        /// Its one timer, on the driver's clock.
        deadline: Option<Duration>,
        steps: AtomicUsize,
        waits: Mutex<Vec<Duration>>,
        /// The `now` each `on_input` and `after_step` was told.
        nows: Mutex<Vec<Duration>>,
        sent: Mutex<Vec<u32>>,
        /// Calls of `handed_off`.
        handoffs: AtomicUsize,
    }

    #[derive(Default)]
    struct FakeSt {
        outbox: Vec<u32>,
    }

    impl Protocol for Fake {
        type State = FakeSt;
        type Input = u32;
        type Output = Vec<u32>;
        const IDLE: Duration = Duration::from_secs(60);
        const FLOOR: Duration = Duration::ZERO;

        fn recv(&self, wait: Duration) -> NetResult<u32> {
            self.waits.lock().push(wait);
            self.rx.lock().recv_timeout(wait).map_err(|e| match e {
                RecvTimeoutError::Timeout => NetError::Timeout,
                RecvTimeoutError::Disconnected => NetError::Closed,
            })
        }

        fn try_recv(&self) -> NetResult<u32> {
            self.rx.lock().try_recv().map_err(|_| NetError::Timeout)
        }

        fn on_input(&self, st: &mut Locked<FakeSt>, input: u32, now: Duration) {
            self.nows.lock().push(now);
            st.outbox.push(input);
            st.wake = true;
        }

        fn after_step(&self, _st: &mut Locked<FakeSt>, _lower: NetResult<()>, now: Duration) {
            self.nows.lock().push(now);
            self.steps.fetch_add(1, Ordering::Relaxed);
        }

        fn next_deadline(&self, _st: &FakeSt) -> Option<Duration> {
            self.deadline
        }

        fn take_output(&self, st: &mut FakeSt) -> Option<Vec<u32>> {
            (!st.outbox.is_empty()).then(|| std::mem::take(&mut st.outbox))
        }

        fn send(&self, out: Vec<u32>) {
            self.sent.lock().extend(out);
        }

        fn handed_off(&self) {
            self.handoffs.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn fake(deadline: Option<Duration>) -> (Driver<Fake>, Sender<u32>) {
        let (tx, rx) = mpsc::channel();
        let core = Fake {
            rx: Mutex::new(rx),
            deadline,
            steps: AtomicUsize::new(0),
            waits: Mutex::new(Vec::new()),
            nows: Mutex::new(Vec::new()),
            sent: Mutex::new(Vec::new()),
            handoffs: AtomicUsize::new(0),
        };
        (Driver::new(core, FakeSt::default()), tx)
    }

    #[test]
    fn only_a_returning_driver_hands_off() {
        let (drv, tx) = fake(None);
        // A call whose first poll yields never drives.
        assert_eq!(drv.wait_until(None, |_, _| Some(Ok(()))), Ok(()));
        assert_eq!(drv.core.handoffs.load(Ordering::Relaxed), 0);
        // A call that drove hands off once, after its release sent what
        // its step took.
        tx.send(3).unwrap();
        let _ = drv.wait_until(Some(Duration::ZERO), |_, _| None::<NetResult<()>>);
        assert_eq!(drv.core.handoffs.load(Ordering::Relaxed), 1);
        assert_eq!(*drv.core.sent.lock(), [3]);
    }

    #[test]
    fn a_zero_budget_runs_exactly_one_step() {
        let (drv, tx) = fake(None);
        tx.send(7).unwrap();
        let never = drv.wait_until(Some(Duration::ZERO), |_, _| None::<NetResult<()>>);
        assert_eq!(never, Err(NetError::Timeout));
        assert_eq!(drv.core.steps.load(Ordering::Relaxed), 1);
        assert_eq!(
            *drv.core.waits.lock(),
            [Duration::ZERO],
            "the step must not wait"
        );
        // The step took the queued input, and the return released it.
        assert_eq!(*drv.core.sent.lock(), [7]);
    }

    #[test]
    fn a_sleeper_releases_its_output_before_it_waits() {
        // One caller holds the drive step, blocked in `recv` for far
        // longer than the test. A second caller's poll queues output and
        // asks to wait for it to leave: it must send it itself before it
        // sleeps, since the driver will not release again until its wait
        // ends.
        let (drv, tx) = fake(None);
        std::thread::scope(|s| {
            // Owned by this closure, so a failed assertion below drops it
            // and ends the leader's wait.
            let tx = tx;
            let leader = s.spawn(|| {
                drv.wait_until(None, |_, _| {
                    (drv.core.steps.load(Ordering::Relaxed) > 0).then_some(Ok(()))
                })
            });
            while !drv.is_driven() {
                std::thread::yield_now();
            }
            let mut queued = false;
            let follower = drv.wait_until(Some(Duration::from_secs(5)), |st, _| {
                if !drv.core.sent.lock().is_empty() {
                    return Some(Ok(()));
                }
                if !std::mem::replace(&mut queued, true) {
                    st.outbox.push(1);
                }
                None
            });
            assert_eq!(follower, Ok(()), "the follower slept on its output");
            assert_eq!(
                drv.core.steps.load(Ordering::Relaxed),
                0,
                "the leader stepped"
            );
            // Wake the leader: its step takes the input, and it returns.
            tx.send(2).unwrap();
            assert_eq!(leader.join().unwrap(), Ok(()));
        });
        assert_eq!(*drv.core.sent.lock(), [1, 2]);
    }

    #[test]
    fn a_step_tells_its_inputs_and_its_end_one_now() {
        let (drv, tx) = fake(None);
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        let reads = clock_reads(|| {
            let never = drv.wait_until(Some(Duration::ZERO), |_, _| None::<NetResult<()>>);
            assert_eq!(never, Err(NetError::Timeout));
        });
        let nows = drv.core.nows.lock().clone();
        assert_eq!(nows.len(), 4, "three inputs and the step's end");
        assert!(nows.iter().all(|&t| t == nows[0]), "{nows:?}");
        // The first miss builds the deadline, the step reads once after
        // its wait, and that read also ends the budget.
        assert_eq!(reads, 2);
    }

    #[test]
    fn a_call_whose_first_poll_yields_reads_no_clock() {
        let (drv, _tx) = fake(None);
        let yields = clock_reads(|| {
            assert_eq!(drv.wait_until(None, |_, _| Some(Ok(()))), Ok(()));
            let budget = Some(Duration::from_secs(1));
            assert_eq!(drv.wait_until(budget, |_, _| Some(Ok(()))), Ok(()));
            drv.scope(|_, _| ());
        });
        assert_eq!(yields, 0);
        // A scope that asks for the time twice reads the clock once.
        let asks = clock_reads(|| {
            let (a, b) = drv.scope(|_, clock| (clock.now(), clock.now()));
            assert_eq!(a, b);
        });
        assert_eq!(asks, 1);
    }

    #[test]
    fn a_step_waits_for_the_deadline_within_idle_and_floor() {
        // A deadline an hour out is capped at `IDLE`; one already past
        // waits `FLOOR`. The zero-wait one runs first, on a fresh driver,
        // so its clock stands far below the hour either way.
        let hour = Duration::from_secs(3600);
        for (deadline, wait) in [(Duration::ZERO, Fake::FLOOR), (hour, Fake::IDLE)] {
            let (drv, tx) = fake(Some(deadline));
            tx.send(1).unwrap();
            let mut stepped = false;
            let out = drv.wait_until(None, |_, _| {
                std::mem::replace(&mut stepped, true).then_some(Ok(()))
            });
            assert_eq!(out, Ok(()));
            assert_eq!(*drv.core.waits.lock(), [wait]);
        }
    }
}
