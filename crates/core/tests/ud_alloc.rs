//! Allocation ratchet for the UD datapath, in `rc_alloc.rs`'s shape: a
//! counting global allocator measures the heap allocations (and bytes
//! allocated) one 64 B UD send costs end to end — `post_send`, the
//! transmit pipeline, the fabric, `progress` on the receiver, placement
//! and both completions, reaped with `poll_into` — on a warmed poll-mode
//! pair. Poll mode runs both QPs on the test thread, so a thread-local
//! counter sees the whole message. The bounds are today's counts: a
//! change may lower them, not raise them.
//!
//! Lives in its own test binary because a `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, Cq, Cqe, CqeStatus, Device, MemoryRegion, QpConfig, SendWr, UdQp};
use simnet::{Fabric, NodeId};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // try_with: allocations during TLS teardown must not panic inside
    // the allocator; missing those is fine — the test thread is live.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
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

const MSG: usize = 64;
const BATCH: usize = 32;
const SLOTS: u64 = 64;
const SLOT: usize = 256;

/// A poll-mode UD pair with `SLOTS` receives posted at the receiver.
struct Pair {
    _fab: Fabric,
    _devs: [Device; 2],
    client: UdQp,
    server: UdQp,
    sink: MemoryRegion,
    cqs: [Cq; 4],
    /// Completion scratch for `poll_into`, sized once.
    reaped: Vec<Cqe>,
    payload: Bytes,
}

impl Pair {
    fn new() -> Self {
        let fab = Fabric::loopback();
        let a = Device::new(&fab, NodeId(0));
        let b = Device::new(&fab, NodeId(1));
        let cfg = QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        };
        let cqs = [Cq::new(256), Cq::new(256), Cq::new(256), Cq::new(256)];
        let client = a.create_ud_qp(None, &cqs[0], &cqs[1], cfg.clone()).unwrap();
        let server = b.create_ud_qp(None, &cqs[2], &cqs[3], cfg).unwrap();
        let sink = b.register(SLOTS as usize * SLOT, Access::Local);
        let pair = Self {
            _fab: fab,
            _devs: [a, b],
            client,
            server,
            sink,
            cqs,
            reaped: vec![Cqe::default(); BATCH],
            payload: Bytes::from((0..MSG).map(|i| i as u8).collect::<Vec<u8>>()),
        };
        for slot in 0..SLOTS {
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

    /// Posts `n` sends (one `post_send`, or one `post_send_batch` of
    /// `n`), drives the receiver until all `n` have completed, reaps
    /// both CQs with `poll_into` and re-posts the consumed receives.
    fn round(&mut self, n: usize) {
        let dest = self.server.dest();
        if n == 1 {
            self.client
                .post_send(0, self.payload.clone(), dest)
                .unwrap();
        } else {
            let wrs: Vec<SendWr> = (0..n as u64)
                .map(|i| SendWr::new(i, self.payload.clone(), dest))
                .collect();
            self.client.post_send_batch(&wrs).unwrap();
        }
        let mut received = 0;
        while received < n {
            self.server.progress(Duration::ZERO);
            let got = self.cqs[3].poll_into(&mut self.reaped[..n - received]);
            for cqe in &self.reaped[..got] {
                assert_eq!(cqe.status, CqeStatus::Success);
                assert_eq!(cqe.byte_len as usize, MSG);
                self.server.post_recv(self.recv_wr(cqe.wr_id)).unwrap();
            }
            received += got;
        }
        let mut sent = 0;
        while sent < n {
            let got = self.cqs[0].poll_into(&mut self.reaped[..n - sent]);
            assert!(got > 0, "send completions are reaped after delivery");
            sent += got;
        }
    }
}

/// Mean allocations and allocated bytes per 64 B message, posting `n` at
/// a time.
fn per_message(n: usize) -> (f64, f64, Pair) {
    const WARM: usize = 2048;
    const MEASURED: usize = 8192;
    let mut pair = Pair::new();
    for _ in 0..WARM / n {
        pair.round(n);
    }
    let (a0, b0) = counts();
    for _ in 0..MEASURED / n {
        pair.round(n);
    }
    let (a1, b1) = counts();
    let msgs = (MEASURED / n * n) as f64;
    ((a1 - a0) as f64 / msgs, (b1 - b0) as f64 / msgs, pair)
}

/// `(sends per post, most allocations, most bytes allocated)` per
/// message: today's counts. A batch of 32 costs 39 allocations and
/// 10 064 B.
const BOUNDS: [(usize, f64, f64); 2] = [(1, 8.0, 368.0), (BATCH, 1.22, 314.5)];

#[test]
fn ud_send_allocations_do_not_grow() {
    for (n, max_allocs, max_bytes) in BOUNDS {
        let (allocs, bytes, pair) = per_message(n);
        println!("batch {n:>2}: {allocs:.2} allocations, {bytes:.1} B allocated per message");
        assert!(
            allocs <= max_allocs,
            "batch of {n}: {allocs:.2} allocations per message (want <= {max_allocs})"
        );
        assert!(
            bytes <= max_bytes,
            "batch of {n}: {bytes:.1} B allocated per message (want <= {max_bytes})"
        );
        // Every message arrived whole, so none needed reassembly state.
        assert!(!pair.server.rx_cold_allocated());
    }
}
