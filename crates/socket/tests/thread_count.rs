//! Which socket stacks spawn RX engine threads, counted from
//! `/proc/self/task`.
//!
//! The count is process-wide, so this check lives alone in its own test
//! binary: no sibling test can start or stop threads while it counts.

use iwarp::QpConfig;
use iwarp_socket::{SocketConfig, SocketStack};
use simnet::{Fabric, NodeId};

fn count_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

#[test]
fn only_threaded_sockets_spawn_engine_threads() {
    // 50 poll-mode sockets add no thread.
    let fab = Fabric::loopback();
    let cfg = SocketConfig {
        recv_slots: 2,
        slot_size: 512,
        qp: QpConfig {
            poll_mode: true,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    };
    let stack = SocketStack::with_config(&fab, NodeId(0), Default::default(), cfg);
    let before = count_threads();
    let socks: Vec<_> = (0..50).map(|_| stack.dgram().unwrap()).collect();
    let after = count_threads();
    assert_eq!(after, before, "poll-mode sockets must not spawn threads");
    drop(socks);

    // Two sockets on a threaded (default) stack spawn their RX engines.
    let fab = Fabric::loopback();
    let stack = SocketStack::new(&fab, NodeId(0));
    let before = count_threads();
    let _s1 = stack.dgram().unwrap();
    let _s2 = stack.dgram().unwrap();
    let after = count_threads();
    assert!(after >= before + 2, "threaded sockets spawn RX engines");
}
