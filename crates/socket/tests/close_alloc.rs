//! Allocation ratchet for one compact datagram socket's open and close,
//! in `ud_alloc.rs`'s shape: a counting global allocator measures the
//! heap allocations (and bytes allocated) one `dgram_with(compact)` plus
//! its drop costs on a warmed poll-mode stack — the QP and its CQs, the
//! slot region and its registration, the fabric bind, the fd, and the
//! teardown of all of them. Poll mode starts no thread, so a
//! thread-local counter sees the whole cycle. The bounds are today's
//! counts: a change may lower them, not raise them.
//!
//! Lives in its own test binary because a `#[global_allocator]` is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use iwarp::QpConfig;
use iwarp_socket::{DgramProfile, SocketConfig, SocketStack};
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

/// Most allocations and most bytes allocated per compact open+close:
/// today's counts (at 256 ring slots the fabric's delivery ring alone
/// was 18 KiB of a cycle before closed links handed their rings back).
const MAX_ALLOCS: f64 = 9.0;
const MAX_BYTES: f64 = 4_384.0;

#[test]
fn compact_socket_open_close_allocations_do_not_grow() {
    const WARM: usize = 256;
    const MEASURED: usize = 2048;
    let fab = Fabric::loopback();
    let cfg = SocketConfig {
        qp: QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    };
    let stack = SocketStack::with_config(&fab, NodeId(0), Default::default(), cfg);
    let cycle = || drop(stack.dgram_with(DgramProfile::compact()).unwrap());
    for _ in 0..WARM {
        cycle();
    }
    let (a0, b0) = counts();
    for _ in 0..MEASURED {
        cycle();
    }
    let (a1, b1) = counts();
    let allocs = (a1 - a0) as f64 / MEASURED as f64;
    let bytes = (b1 - b0) as f64 / MEASURED as f64;
    println!("compact open+close: {allocs:.2} allocations, {bytes:.1} B allocated");
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs:.2} allocations per open+close (want <= {MAX_ALLOCS})"
    );
    assert!(
        bytes <= MAX_BYTES,
        "{bytes:.1} B allocated per open+close (want <= {MAX_BYTES})"
    );
}
