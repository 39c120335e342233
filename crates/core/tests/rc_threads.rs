//! How many threads an RC connection costs, counted from
//! `/proc/self/task`: one receive engine per threaded QP, none for a
//! poll-mode QP — the accepted side included, on a default
//! `DeviceConfig`. The stream underneath has no thread of its own.
//!
//! The count is process-wide, so this check lives alone in its own test
//! binary: no sibling test can start or stop threads while it counts.

use std::time::{Duration, Instant};

use iwarp::{Cq, Device, QpConfig, RcQp};
use simnet::{Addr, Fabric, NodeId};

fn count_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// The thread count once it has settled at `want` (a joined helper
/// thread can linger in `/proc` for a moment), or whatever it is after
/// a second.
fn settled_count(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = count_threads();
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Connects an RC pair between two default devices; the accept runs on
/// a helper thread that is joined before this returns.
fn rc_pair(port: u16, cfg: &QpConfig) -> (Fabric, RcQp, RcQp) {
    let fab = Fabric::loopback();
    let (a, b) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let listener = b.rc_listen(port).unwrap();
    let (client, server) = std::thread::scope(|s| {
        let srv = s.spawn(|| {
            listener
                .accept(
                    Duration::from_secs(5),
                    &Cq::new(16),
                    &Cq::new(16),
                    cfg.clone(),
                )
                .unwrap()
        });
        let client = a
            .rc_connect(Addr::new(1, port), &Cq::new(16), &Cq::new(16), cfg.clone())
            .unwrap();
        (client, srv.join().unwrap())
    });
    (fab, client, server)
}

#[test]
fn rc_sides_spawn_only_their_receive_engines() {
    if count_threads() == 0 {
        eprintln!("skipped: /proc/self/task is not readable here");
        return;
    }

    // A threaded pair: one receive engine per side, no stream thread.
    let before = count_threads();
    let pair = rc_pair(4900, &QpConfig::default());
    assert_eq!(
        settled_count(before + 2),
        before + 2,
        "a threaded RC side runs exactly one thread"
    );
    drop(pair);
    assert_eq!(settled_count(before), before, "threads outlived their QPs");

    // A poll-mode pair, accepted side included: no thread at all.
    let poll = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let pair = rc_pair(4901, &poll);
    assert_eq!(
        settled_count(before),
        before,
        "a poll-mode RC side runs no thread"
    );
    drop(pair);
}
