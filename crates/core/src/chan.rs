//! Event-driven completion notification.
//!
//! A [`CompletionChannel`] is the wait object completion consumers park
//! on instead of spin-polling CQs — the software analogue of the verbs
//! completion channel (and, through [`CompletionChannel::wait_any`], of
//! `epoll_wait` over completion fds). Any number of [`Cq`]s subscribe via
//! [`Cq::attach_channel`](crate::cq::Cq::attach_channel), each under an application-chosen token; every
//! CQE pushed to a subscribed CQ marks its token ready and wakes one
//! waiter. One thread can thereby service thousands of QPs/sockets,
//! which is what the paper's SIP scenario needs once concurrent calls
//! outnumber cores by three orders of magnitude.
//!
//! Tokens are *level-ish* edges: a token is queued at most once until
//! collected (readiness is coalesced, like `EPOLLIN`), and the consumer
//! is expected to drain the corresponding CQ completely on each wakeup —
//! exactly the discipline edge-triggered epoll demands.
//!
//! [`Cq`]: crate::cq::Cq

use std::collections::{HashSet, VecDeque};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use iwarp_telemetry::{CoreMetrics, Telemetry};
use parking_lot::{Condvar, Mutex};

struct ChanState {
    /// Ready tokens in arrival order.
    ready: VecDeque<u64>,
    /// Tokens currently in `ready` (coalescing: one entry per token).
    queued: HashSet<u64>,
}

struct ChanInner {
    state: Mutex<ChanState>,
    cv: Condvar,
    /// The domain counted into under `core.chan.*`.
    tel: OnceLock<Telemetry>,
}

/// A condvar-backed completion wait object; clones share the same state.
#[derive(Clone)]
pub struct CompletionChannel {
    inner: Arc<ChanInner>,
}

impl Default for CompletionChannel {
    fn default() -> Self {
        Self::new()
    }
}

impl CompletionChannel {
    /// Creates an empty channel.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Arc::new(ChanInner {
                state: Mutex::new(ChanState {
                    ready: VecDeque::new(),
                    queued: HashSet::new(),
                }),
                cv: Condvar::new(),
                tel: OnceLock::new(),
            }),
        }
    }

    /// Binds this channel into a telemetry domain (`core.chan.*`);
    /// idempotent, first domain wins.
    pub fn attach_telemetry(&self, tel: &Telemetry) {
        self.inner.tel.get_or_init(|| tel.clone());
    }

    /// The `core.*` block of the bound domain, if any.
    fn metrics(&self) -> Option<&CoreMetrics> {
        self.inner.tel.get().map(Telemetry::core)
    }

    /// Marks `token` ready and wakes a waiter. Readiness coalesces: a
    /// token already queued is not queued again. Called by [`Cq::push`]
    /// for subscribed CQs; safe from any thread.
    ///
    /// [`Cq::push`]: crate::cq::Cq::push
    pub fn notify(&self, token: u64) {
        let mut st = self.inner.state.lock();
        if let Some(m) = self.metrics() {
            m.chan_notifies.inc();
        }
        if !st.queued.insert(token) {
            if let Some(m) = self.metrics() {
                m.chan_coalesced.inc();
            }
            return;
        }
        st.ready.push_back(token);
        drop(st);
        // notify_all, not _one: several threads may wait_any on the same
        // channel (a worker pool) and a single pending token must not
        // strand the others forever if the woken worker exits.
        self.inner.cv.notify_all();
    }

    /// Collects every ready token without blocking (may be empty).
    #[must_use]
    pub fn try_wait(&self) -> Vec<u64> {
        let mut st = self.inner.state.lock();
        Self::drain(&mut st)
    }

    /// Blocks until at least one subscribed token is ready (or `timeout`
    /// elapses, returning an empty vec) and collects all of them — the
    /// `epoll_wait` analogue. The wait parks on a condvar; an idle
    /// waiter burns no CPU (guarded by a procfs-tick regression test).
    ///
    /// Consumers must fully drain the CQ behind each returned token:
    /// readiness was coalesced while the token sat queued.
    #[must_use]
    pub fn wait_any(&self, timeout: Duration) -> Vec<u64> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if !st.ready.is_empty() {
                if let Some(m) = self.metrics() {
                    m.chan_wakeups.inc();
                }
                return Self::drain(&mut st);
            }
            let now = Instant::now();
            if now >= deadline {
                if let Some(m) = self.metrics() {
                    m.chan_timeouts.inc();
                }
                return Vec::new();
            }
            self.inner.cv.wait_for(&mut st, deadline - now);
        }
    }

    fn drain(st: &mut ChanState) -> Vec<u64> {
        let out: Vec<u64> = st.ready.drain(..).collect();
        st.queued.clear();
        out
    }

    /// Tokens currently ready (diagnostic).
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.inner.state.lock().ready.len()
    }
}

impl std::fmt::Debug for CompletionChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionChannel")
            .field("ready", &self.ready_len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_then_wait_returns_token() {
        let ch = CompletionChannel::new();
        ch.notify(7);
        assert_eq!(ch.wait_any(Duration::from_millis(1)), vec![7]);
        assert!(ch.wait_any(Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn readiness_coalesces_per_token() {
        let ch = CompletionChannel::new();
        ch.notify(1);
        ch.notify(1);
        ch.notify(2);
        assert_eq!(ch.wait_any(Duration::from_millis(1)), vec![1, 2]);
        // After collection the token can be queued again.
        ch.notify(1);
        assert_eq!(ch.try_wait(), vec![1]);
    }

    #[test]
    fn wait_wakes_on_cross_thread_notify() {
        let ch = CompletionChannel::new();
        std::thread::scope(|s| {
            let ch2 = ch.clone();
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                ch2.notify(42);
            });
            let got = ch.wait_any(Duration::from_secs(2));
            assert_eq!(got, vec![42]);
        });
    }
}
