//! Sharded receive engines: the many-QP scale-out datapath.
//!
//! The per-QP RX thread of the baseline stack ([`QpConfig::poll_mode`]
//! false) is faithful to a 2-node microbenchmark and fatal at the
//! ROADMAP's "millions of users" scale: a thousand concurrent calls
//! would mean a thousand threads, each waking on a 5 ms tick to poll an
//! almost-always-empty queue. A [`ShardMap`] replaces them with a fixed
//! pool of engines: QPs are assigned to shards by hashing their QP
//! number, each shard runs one worker that parks on an inbox condvar,
//! and the fabric's delivery path marks a QP's conduit *ready* in its
//! shard's inbox (via [`simnet::RxNotify`]) instead of waking a
//! dedicated thread. Ready QPs are then drained in batches —
//! `qp::dgram::rx_drain` — which is where delivery batching
//! happens: one wakeup serves every packet that queued since the last.
//!
//! Determinism: sharding never reorders *within* a QP (the conduit queue
//! is FIFO and exactly one shard drains it), but interleaves processing
//! *across* QPs nondeterministically. The chaos replay harness therefore
//! keeps its QPs in caller-driven poll mode — equivalent to a single
//! shard serviced in program order — and its byte-identical traces are
//! unaffected by this module (guarded by `tests/chaos.rs`).
//!
//! Lock order (must hold pairwise, never reversed):
//! fabric control → shard inbox → conduit reassembly → RX-core maps
//! → CQ queue → completion channel. The fabric invokes arrival
//! notifiers outside every fabric lock (see DESIGN.md §9), so the first
//! edge never actually nests; it is listed for the audit trail.
//!
//! [`QpConfig::poll_mode`]: crate::qp::QpConfig::poll_mode

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use iwarp_telemetry::Telemetry;
use parking_lot::{Condvar, Mutex};

use crate::qp::dgram::{rx_drain, DgInner, Drained, BATCH};

/// Housekeeping tick: how long an idle shard worker sleeps between
/// wake-ups when no QP is ready.
const IDLE_TICK: Duration = Duration::from_millis(20);

/// Minimum interval between TTL expiry sweeps over the shard's QPs.
/// Sweeping touches every assigned engine (a Weak upgrade plus a
/// throttle-lock probe each), so on an idle shard with thousands of QPs
/// the sweep — not the parked wait — is the CPU floor; it is therefore
/// rate-limited independently of [`IDLE_TICK`]. Worst-case expiry latency
/// grows by this amount on top of the QP TTLs (default 500 ms), which
/// keeps it well inside the same order.
const SWEEP_EVERY: Duration = Duration::from_millis(100);

/// Shard-pool configuration (part of
/// [`DeviceConfig`](crate::device::DeviceConfig)).
#[derive(Clone, Debug, Default)]
pub struct ShardConfig {
    /// Number of shard RX engines. `0` disables sharding entirely — QPs
    /// keep their per-QP engine thread (the fallback behind the CQ
    /// waiters that drive them) or stay caller-driven in poll mode. RD
    /// QPs keep theirs either way.
    pub shards: usize,
}

impl ShardConfig {
    /// A pool of `n` shards.
    #[must_use]
    pub fn with_shards(n: usize) -> Self {
        Self { shards: n }
    }
}

struct ShardState {
    /// Ready QPs in notification order; coalesced via `queued`.
    ready: VecDeque<u32>,
    queued: HashSet<u32>,
    /// Engines assigned to this shard. Weak: the QP owns its engine; a
    /// dead entry is reaped on next touch.
    engines: HashMap<u32, Weak<DgInner>>,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Shard {
    fn mark_ready(&self, qpn: u32) {
        let mut st = self.state.lock();
        if st.queued.insert(qpn) {
            st.ready.push_back(qpn);
            drop(st);
            self.cv.notify_one();
        }
    }
}

/// A pool of shard RX engines plus the QP→shard assignment.
///
/// Created by [`Device::with_config`](crate::device::Device::with_config)
/// when [`ShardConfig::shards`] is non-zero; threaded-mode UD QPs built
/// on that device are then engine-less and drained by their shard.
pub struct ShardMap {
    shards: Vec<Arc<Shard>>,
    /// Counted into under `core.shard.*` by every shard of the map.
    tel: Telemetry,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardMap {
    /// Spawns `cfg.shards` worker threads (`iwarp-shard-<i>`).
    #[must_use]
    pub fn new(cfg: ShardConfig, tel: &Telemetry) -> Arc<Self> {
        let shards: Vec<Arc<Shard>> = (0..cfg.shards.max(1))
            .map(|_| {
                Arc::new(Shard {
                    state: Mutex::new(ShardState {
                        ready: VecDeque::new(),
                        queued: HashSet::new(),
                        engines: HashMap::new(),
                    }),
                    cv: Condvar::new(),
                    shutdown: AtomicBool::new(false),
                })
            })
            .collect();
        let workers = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let tel = tel.clone();
                std::thread::Builder::new()
                    .name(format!("iwarp-shard-{i}"))
                    .spawn(move || worker(&shard, &tel))
                    .expect("spawn shard worker")
            })
            .collect();
        Arc::new(Self {
            shards,
            tel: tel.clone(),
            workers: Mutex::new(workers),
        })
    }

    /// Number of shards in the pool.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a QP number maps to (stable hash, so tests can place
    /// QPs deliberately).
    #[must_use]
    pub fn shard_of(&self, qpn: u32) -> usize {
        (iwarp_common::rng::mix64(u64::from(qpn)) % self.shards.len() as u64) as usize
    }

    /// Assigns `engine` to its shard and installs the conduit's arrival
    /// notifier. Returns `false` (no assignment) for an RD QP: a shard
    /// drains arrivals but never runs a drive step when a retransmission
    /// timer falls due, so an RD QP on a shard would lose its RTOs. RD
    /// QPs keep their own fallback thread, which does.
    pub(crate) fn register(self: &Arc<Self>, engine: &Arc<DgInner>) -> bool {
        if engine.is_reliable() {
            return false;
        }
        let qpn = engine.qpn();
        let shard = Arc::clone(&self.shards[self.shard_of(qpn)]);
        let notify_shard = Arc::clone(&shard);
        engine.set_notify(Some(Arc::new(move |_addr| {
            notify_shard.mark_ready(qpn);
        })));
        shard
            .state
            .lock()
            .engines
            .insert(qpn, Arc::downgrade(engine));
        self.tel.core().shard_registered.inc();
        // Catch anything delivered before the notifier was installed.
        shard.mark_ready(qpn);
        true
    }

    /// Removes a QP from its shard (called on QP drop; the notifier dies
    /// with the conduit's endpoint).
    pub(crate) fn unregister(&self, qpn: u32) {
        let shard = &self.shards[self.shard_of(qpn)];
        let mut st = shard.state.lock();
        st.engines.remove(&qpn);
        st.queued.remove(&qpn);
        st.ready.retain(|q| *q != qpn);
    }

    /// QPs currently assigned across all shards (diagnostic).
    #[must_use]
    pub fn registered(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().engines.len())
            .sum()
    }
}

impl Drop for ShardMap {
    fn drop(&mut self) {
        for s in &self.shards {
            s.shutdown.store(true, Ordering::SeqCst);
            s.cv.notify_one();
        }
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ShardMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMap")
            .field("shards", &self.shards())
            .field("registered", &self.registered())
            .finish()
    }
}

/// Shard worker body: park on the inbox, drain ready QPs in batches, and
/// sweep every assigned QP for expirations at most once per
/// [`SWEEP_EVERY`], whether the shard is idle or busy.
fn worker(shard: &Shard, tel: &Telemetry) {
    let tel = tel.core();
    let mut last_sweep = std::time::Instant::now();
    loop {
        // Claim the next ready QP (or sleep until one appears).
        let claimed = {
            let mut st = shard.state.lock();
            loop {
                if shard.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(qpn) = st.ready.pop_front() {
                    st.queued.remove(&qpn);
                    let eng = st.engines.get(&qpn).and_then(Weak::upgrade);
                    if eng.is_none() {
                        st.engines.remove(&qpn);
                        continue;
                    }
                    break Some((qpn, eng.expect("checked")));
                }
                let timed_out = shard.cv.wait_for(&mut st, IDLE_TICK).timed_out();
                if timed_out && st.ready.is_empty() {
                    break None; // idle tick: housekeeping below
                }
            }
        };
        if let Some((qpn, engine)) = claimed {
            tel.shard_wakeups.inc();
            tel.shard_batches.inc();
            if rx_drain(&engine, BATCH) == Drained::More {
                // Budget exhausted with more pending: requeue behind
                // the QP's shard siblings.
                tel.shard_requeues.inc();
                shard.mark_ready(qpn);
            }
        }
        // Sweep every assigned QP so recv/record/read TTLs fire without
        // traffic. This runs after a drain as well as on an idle tick: a
        // sibling that keeps the inbox busy must not starve a quiet QP's
        // expiry. Collect strong refs first — the sweep must run outside
        // the inbox lock.
        if last_sweep.elapsed() < SWEEP_EVERY {
            continue;
        }
        last_sweep = std::time::Instant::now();
        tel.shard_expiry_sweeps.inc();
        let engines: Vec<Arc<DgInner>> = {
            let mut st = shard.state.lock();
            st.engines.retain(|_, w| w.strong_count() > 0);
            st.engines.values().filter_map(Weak::upgrade).collect()
        };
        for e in engines {
            e.rx.expire();
        }
    }
}
