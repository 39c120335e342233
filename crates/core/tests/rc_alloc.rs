//! Allocation ratchet for the RC datapath: a counting global allocator
//! measures the heap allocations (and bytes allocated) one RC send costs,
//! end to end — post, MPA framing, stream segmentation, the fabric, the
//! receive engine, placement and both completions — on a warmed
//! poll-mode pair. Poll mode runs both QPs and both stream conduits on
//! the test thread, so a thread-local counter sees the whole message and
//! the libtest harness threads cannot pollute the window. The bounds are
//! today's counts: a change may lower them, not raise them.
//!
//! Lives in its own test binary because a `#[global_allocator]` is
//! process-wide.
//!
//! `cargo test --release -p iwarp --test rc_alloc -- --ignored --nocapture`
//! prints where the allocations come from (sampled backtraces) and what a
//! 64 KiB message costs a threaded pair, counted process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, CqeStatus, Device, DeviceConfig, MemoryRegion, QpConfig, RcQp};
use simnet::stream::StreamConfig;
use simnet::{Fabric, NodeId};

/// Allocations by every thread (for the threaded probe, run alone).
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Capture a backtrace every this many allocations (0: never).
    static SAMPLE_EVERY: Cell<u64> = const { Cell::new(0) };
    /// Set while a sample is being taken: its own allocations are not
    /// counted or sampled.
    static SAMPLING: Cell<bool> = const { Cell::new(false) };
    static SAMPLES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn note(size: usize) {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // try_with: allocations during TLS teardown must not panic inside
    // the allocator; missing those is fine — the test thread is live.
    if SAMPLING.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let n = ALLOCS.with(|c| {
        c.set(c.get() + 1);
        c.get()
    });
    BYTES.with(|c| c.set(c.get() + size as u64));
    let every = SAMPLE_EVERY.with(Cell::get);
    if every > 0 && n.is_multiple_of(every) {
        SAMPLING.with(|s| s.set(true));
        let bt = std::backtrace::Backtrace::force_capture().to_string();
        SAMPLES.with(|s| s.borrow_mut().push(bt));
        SAMPLING.with(|s| s.set(false));
    }
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

const RQ_DEPTH: u64 = 8;
const SLOT: usize = 16 * 1024;

/// A connected poll-mode RC pair with `RQ_DEPTH` receives posted.
struct Pair {
    _fab: Fabric,
    client: RcQp,
    server: RcQp,
    sink: MemoryRegion,
    cqs: [Cq; 4],
    sent: u64,
}

impl Pair {
    fn new() -> Self {
        let fab = Fabric::loopback();
        let dev_cfg = DeviceConfig {
            stream: StreamConfig {
                // No retransmission timer fires within the run.
                rto_initial: Duration::from_secs(30),
                rto_max: Duration::from_secs(30),
                ..StreamConfig::default()
            },
            ..DeviceConfig::default()
        };
        let a = Device::with_config(&fab, NodeId(0), dev_cfg.clone());
        let b = Device::with_config(&fab, NodeId(1), dev_cfg);
        let cfg = QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        };
        let cqs = [Cq::new(64), Cq::new(64), Cq::new(64), Cq::new(64)];
        let listener = b.rc_listen(4800).unwrap();
        let (client, server) = std::thread::scope(|s| {
            let srv = s.spawn(|| {
                listener
                    .accept(Duration::from_secs(5), &cqs[2], &cqs[3], cfg.clone())
                    .unwrap()
            });
            let client = a
                .rc_connect(listener.local_addr(), &cqs[0], &cqs[1], cfg.clone())
                .unwrap();
            (client, srv.join().unwrap())
        });
        let sink = b.register(RQ_DEPTH as usize * SLOT, Access::Local);
        let pair = Self {
            _fab: fab,
            client,
            server,
            sink,
            cqs,
            sent: 0,
        };
        for slot in 0..RQ_DEPTH {
            pair.server.post_recv(pair.recv_wr(slot)).unwrap();
        }
        pair
    }

    fn recv_wr(&self, slot: u64) -> RecvWr {
        RecvWr {
            wr_id: slot,
            mr: self.sink.clone(),
            offset: slot * SLOT as u64,
            len: SLOT as u32,
        }
    }

    /// One send, driven to both completions, its receive re-posted.
    fn message(&mut self, payload: &Bytes) {
        let [c_send, _, _, s_recv] = &self.cqs;
        self.client.post_send(self.sent, payload.clone()).unwrap();
        self.sent += 1;
        let recv = loop {
            self.server.progress(Duration::ZERO);
            self.client.progress(Duration::ZERO);
            if let Some(c) = s_recv.poll() {
                break c;
            }
        };
        assert_eq!(recv.status, CqeStatus::Success);
        assert_eq!(recv.byte_len as usize, payload.len());
        let send = c_send.poll().expect("send completion");
        assert_eq!(send.status, CqeStatus::Success);
        self.server.post_recv(self.recv_wr(recv.wr_id)).unwrap();
    }
}

/// Mean allocations and allocated bytes per message of `size` bytes.
fn per_message(size: usize) -> (f64, f64) {
    const WARM: u64 = 64;
    const MEASURED: u64 = 256;
    let mut pair = Pair::new();
    let payload = Bytes::from((0..size).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    for _ in 0..WARM {
        pair.message(&payload);
    }
    let (a0, b0) = counts();
    for _ in 0..MEASURED {
        pair.message(&payload);
    }
    let (a1, b1) = counts();
    let n = MEASURED as f64;
    ((a1 - a0) as f64 / n, (b1 - b0) as f64 / n)
}

/// `(size, most allocations, most bytes allocated)` per message. The
/// allocation bounds are this datapath's counts. The byte bounds are
/// those of the datapath before each message was framed once and
/// written with one stream call (it made 24, 24 and 271 allocations);
/// no change may exceed them.
const BOUNDS: [(usize, f64, f64); 3] = [
    (64, 16.0, 1_454.0),
    (1400, 16.0, 10_849.0),
    (16 * 1024, 30.0, 127_485.0),
];

#[test]
fn rc_send_allocations_do_not_grow() {
    for (size, max_allocs, max_bytes) in BOUNDS {
        let (allocs, bytes) = per_message(size);
        println!("{size:>6} B: {allocs:.2} allocations, {bytes:.0} B allocated per message");
        assert!(
            allocs <= max_allocs,
            "{size} B message: {allocs:.2} allocations (want <= {max_allocs})"
        );
        assert!(
            bytes <= max_bytes,
            "{size} B message: {bytes:.0} B allocated (want <= {max_bytes})"
        );
    }
}

/// The function a backtrace line names, if it is a frame line
/// (`  12: crate::module::function`).
fn frame_name(line: &str) -> Option<&str> {
    let (idx, name) = line.trim_start().split_once(": ")?;
    idx.parse::<u32>().ok()?;
    Some(name.trim())
}

/// Prints the sampled allocation sites of 16 KiB sends, each as the
/// innermost workspace frames that asked for memory, most frequent
/// first. glibc is built without frame pointers, so an outside sampler
/// sees `malloc` but not who called it; this report names the caller.
#[test]
#[ignore = "diagnostic report; run with --ignored --nocapture"]
fn report_allocation_sites() {
    let mut pair = Pair::new();
    let payload = Bytes::from(vec![0x5Au8; 16 * 1024]);
    for _ in 0..64 {
        pair.message(&payload);
    }
    SAMPLE_EVERY.with(|c| c.set(7));
    let (a0, _) = counts();
    const MESSAGES: u64 = 128;
    for _ in 0..MESSAGES {
        pair.message(&payload);
    }
    let (a1, _) = counts();
    SAMPLE_EVERY.with(|c| c.set(0));
    let samples = SAMPLES.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let ours = |name: &str| {
        [
            "iwarp::",
            "simnet::",
            "iwarp_common::",
            "bytes::",
            "<iwarp",
            "<simnet",
            "<bytes",
        ]
        .iter()
        .any(|p| name.starts_with(p))
    };
    let mut sites: HashMap<String, u64> = HashMap::new();
    for bt in &samples {
        let frames: Vec<&str> = bt
            .lines()
            .filter_map(frame_name)
            .filter(|f| ours(f))
            .collect();
        let site = if frames.is_empty() {
            "(no workspace frame)".to_owned()
        } else {
            frames[..frames.len().min(3)].join("  <-  ")
        };
        *sites.entry(site).or_default() += 1;
    }
    let mut sites: Vec<_> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!(
        "{:.1} allocations per 16 KiB message; {} samples (1 in 7):",
        (a1 - a0) as f64 / MESSAGES as f64,
        samples.len()
    );
    for (site, n) in sites {
        let share = 100.0 * n as f64 / samples.len() as f64;
        println!("{share:5.1} %  {site}");
    }
}

/// Allocations per 64 KiB send on a threaded pair (engine threads on
/// both sides, as the `rc_bw_64KiB` benchmark runs it), counted across
/// all threads. Run it alone: the counter is process-wide.
#[test]
#[ignore = "diagnostic report; run alone with --ignored --nocapture"]
fn report_threaded_64k_allocations() {
    const MSG: usize = 64 * 1024;
    const DEPTH: u64 = 16;
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let cqs = [Cq::new(64), Cq::new(64), Cq::new(64), Cq::new(64)];
    let listener = b.rc_listen(4801).unwrap();
    let (client, server) = std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(
                    Duration::from_secs(5),
                    &cqs[2],
                    &cqs[3],
                    QpConfig::default(),
                )
                .unwrap()
        });
        let client = a
            .rc_connect(listener.local_addr(), &cqs[0], &cqs[1], QpConfig::default())
            .unwrap();
        (client, srv.join().unwrap())
    });
    let sink = b.register(DEPTH as usize * MSG, Access::Local);
    let wr = |slot: u64| RecvWr {
        wr_id: slot,
        mr: sink.clone(),
        offset: slot * MSG as u64,
        len: MSG as u32,
    };
    for slot in 0..DEPTH {
        server.post_recv(wr(slot)).unwrap();
    }
    let payload = Bytes::from(vec![0xC3u8; MSG]);
    let run = |n: u64| {
        for i in 0..n {
            client.post_send(i, payload.clone()).unwrap();
            let c = cqs[3].poll_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(c.status, CqeStatus::Success);
            server.post_recv(wr(c.wr_id)).unwrap();
            cqs[0].poll_timeout(Duration::from_secs(5)).unwrap();
        }
    };
    run(64);
    const MESSAGES: u64 = 512;
    let before = ALL_ALLOCS.load(Ordering::Relaxed);
    run(MESSAGES);
    let after = ALL_ALLOCS.load(Ordering::Relaxed);
    println!(
        "threaded pair: {:.0} allocations per 64 KiB message",
        (after - before) as f64 / MESSAGES as f64
    );
}
