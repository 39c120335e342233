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

    /// Waits at most `wait` for the next input.
    fn recv(&self, wait: Duration) -> NetResult<Self::Input>;
    /// The next input already queued.
    fn try_recv(&self) -> NetResult<Self::Input>;
    /// Handles one input.
    fn on_input(&self, st: &mut Locked<Self::State>, input: Self::Input);
    /// Ends a drive step; `lower` is its wait's error, timeouts aside.
    fn after_step(&self, st: &mut Locked<Self::State>, lower: NetResult<()>);
    /// How long a drive step may wait before a timer could be due.
    fn next_deadline(&self, st: &Self::State) -> Duration;
    /// Takes the scope's output, if any, under the lock.
    fn take_output(&self, st: &mut Self::State) -> Option<Self::Output>;
    /// Sends taken output, after the unlock.
    fn send(&self, out: Self::Output);
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

/// A protocol core and its state behind one lock, with the condvar where
/// callers that are not driving sleep.
pub(crate) struct Driver<P: Protocol> {
    pub(crate) core: P,
    st: Mutex<Locked<P::State>>,
    cv: Condvar,
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
        }
    }

    /// Runs `f` in one lock scope, which ends in the release step.
    pub(crate) fn scope<T>(&self, f: impl FnOnce(&mut P::State) -> T) -> T {
        let mut st = self.st.lock();
        let out = f(&mut st.st);
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
    /// other caller does and sleeping otherwise. The deadline is built at
    /// the first miss, so a call whose first poll yields reads no clock,
    /// and a driver polls after at least one step, so a zero budget still
    /// runs one.
    pub(crate) fn wait_until<T>(
        &self,
        budget: Option<Duration>,
        mut poll: impl FnMut(&mut P::State) -> Option<NetResult<T>>,
    ) -> NetResult<T> {
        let mut st = self.st.lock();
        let mut driver = false;
        let mut deadline = None;
        let out = loop {
            if let Some(out) = poll(&mut st.st) {
                break out;
            }
            let left = budget.map(|t| {
                let now = Instant::now();
                deadline
                    .get_or_insert(now + t)
                    .saturating_duration_since(now)
            });
            // A spent budget ends the call, unless the drive step is free:
            // then the caller takes it once.
            if left == Some(Duration::ZERO) && st.driving {
                break Err(NetError::Timeout);
            }
            if driver || !st.driving {
                driver = true;
                st.driving = true;
                st = self.step(st, left);
                continue;
            }
            // A sleeper holds no output back: a poll that queued some (a
            // writer that pumped, then found its buffer full) sends it and
            // polls again.
            if let Some(out) = self.core.take_output(&mut st) {
                drop(st);
                self.core.send(out);
                st = self.st.lock();
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
        };
        // A returning driver hands the drive step on.
        if driver {
            st.driving = false;
            st.wake = true;
        }
        self.release(st);
        out
    }

    /// One drive step, by the caller holding `driving`: releases, waits
    /// for at most `left` and the next deadline, then handles every
    /// queued input and ends the step in one new scope.
    fn step<'a>(&'a self, st: Guard<'a, P>, left: Option<Duration>) -> Guard<'a, P> {
        let wait = self.core.next_deadline(&st);
        let wait = left.map_or(wait, |left| left.min(wait));
        self.release(st);
        let got = self.core.recv(wait);
        let mut st = self.st.lock();
        let lower = match got {
            Ok(input) => {
                self.core.on_input(&mut st, input);
                while let Ok(input) = self.core.try_recv() {
                    self.core.on_input(&mut st, input);
                }
                Ok(())
            }
            Err(NetError::Timeout) => Ok(()),
            Err(e) => Err(e),
        };
        self.core.after_step(&mut st, lower);
        st
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};

    use super::*;

    impl<P: Protocol> Driver<P> {
        /// Whether a caller holds the drive step.
        pub(crate) fn is_driven(&self) -> bool {
            self.st.lock().driving
        }

        /// Whether some thread holds the state lock.
        pub(crate) fn is_locked(&self) -> bool {
            self.st.try_lock().is_none()
        }
    }

    /// A protocol over a channel of numbers: every input is queued as
    /// output, and `send` logs what left.
    struct Fake {
        rx: Mutex<Receiver<u32>>,
        /// How long an idle step may wait.
        idle: Duration,
        steps: AtomicUsize,
        waits: Mutex<Vec<Duration>>,
        sent: Mutex<Vec<u32>>,
    }

    #[derive(Default)]
    struct FakeSt {
        outbox: Vec<u32>,
    }

    impl Protocol for Fake {
        type State = FakeSt;
        type Input = u32;
        type Output = Vec<u32>;

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

        fn on_input(&self, st: &mut Locked<FakeSt>, input: u32) {
            st.outbox.push(input);
            st.wake = true;
        }

        fn after_step(&self, _st: &mut Locked<FakeSt>, _lower: NetResult<()>) {
            self.steps.fetch_add(1, Ordering::Relaxed);
        }

        fn next_deadline(&self, _st: &FakeSt) -> Duration {
            self.idle
        }

        fn take_output(&self, st: &mut FakeSt) -> Option<Vec<u32>> {
            (!st.outbox.is_empty()).then(|| std::mem::take(&mut st.outbox))
        }

        fn send(&self, out: Vec<u32>) {
            self.sent.lock().extend(out);
        }
    }

    fn fake(idle: Duration) -> (Driver<Fake>, Sender<u32>) {
        let (tx, rx) = mpsc::channel();
        let core = Fake {
            rx: Mutex::new(rx),
            idle,
            steps: AtomicUsize::new(0),
            waits: Mutex::new(Vec::new()),
            sent: Mutex::new(Vec::new()),
        };
        (Driver::new(core, FakeSt::default()), tx)
    }

    #[test]
    fn a_zero_budget_runs_exactly_one_step() {
        let (drv, tx) = fake(Duration::from_secs(10));
        tx.send(7).unwrap();
        let never = drv.wait_until(Some(Duration::ZERO), |_| None::<NetResult<()>>);
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
        let (drv, tx) = fake(Duration::from_secs(60));
        std::thread::scope(|s| {
            // Owned by this closure, so a failed assertion below drops it
            // and ends the leader's wait.
            let tx = tx;
            let leader = s.spawn(|| {
                drv.wait_until(None, |_| {
                    (drv.core.steps.load(Ordering::Relaxed) > 0).then_some(Ok(()))
                })
            });
            while !drv.is_driven() {
                std::thread::yield_now();
            }
            let mut queued = false;
            let follower = drv.wait_until(Some(Duration::from_secs(5)), |st| {
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
}
