//! Tier-1 loss-recovery gate: the congestion-control knob must never
//! change *what* the reliable conduits deliver (see DESIGN.md "Loss
//! recovery & congestion control").
//!
//! The same seeded lossy wire run under every `CcAlgo` yields
//! byte-identical in-order delivery for both the byte stream and the
//! reliable datagram conduit: the controller shapes *when* packets move,
//! never *what* arrives. That the chaos harness's unreliable phases never
//! see the controller is a replay anchor (`tests/determinism.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bytes::Bytes;
use datagram_iwarp::cc::CcAlgo;
use datagram_iwarp::net::rdgram::RdConfig;
use datagram_iwarp::net::stream::StreamConfig;
use datagram_iwarp::net::{
    Addr, Fabric, NodeId, RdConduit, StreamConduit, StreamListener, WireConfig,
};

const SEED: u64 = 0xCC_1055;

fn pattern(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(salt) % 251) as u8)
        .collect()
}

/// A seeded 5%-loss stream transfer delivers the same bytes, in order,
/// under every congestion-control algorithm.
#[test]
fn stream_delivery_is_byte_identical_across_algos() {
    let data = pattern(96 * 1024, 7);
    for algo in CcAlgo::ALL {
        let fab = Fabric::new(WireConfig::with_loss(0.05, SEED));
        let cfg = StreamConfig {
            rto_initial: Duration::from_millis(5),
            rto_max: Duration::from_millis(30),
            cc: algo,
            ..StreamConfig::default()
        };
        let listener = StreamListener::bind(&fab, Addr::new(1, 800), cfg.clone()).unwrap();
        let data = &data;
        std::thread::scope(|sc| {
            let srv = sc.spawn(|| {
                let server = listener.accept(Some(Duration::from_secs(10))).unwrap();
                let mut got = vec![0u8; data.len()];
                server
                    .read_exact(&mut got, Some(Duration::from_secs(30)))
                    .unwrap();
                got
            });
            let client =
                StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 800), cfg.clone()).unwrap();
            client.write_all(data).unwrap();
            // The client progresses only inside a call on it: its tail is
            // retransmitted while it flushes.
            client.flush(Duration::from_secs(30)).unwrap();
            let got = srv.join().unwrap();
            assert_eq!(got, *data, "[{algo}] stream corrupted delivery");
            client.close();
        });
    }
}

/// The same seeded lossy rdgram run delivers every message exactly once,
/// intact and in send order, under every algorithm.
#[test]
fn rdgram_delivery_is_identical_across_algos() {
    let msgs: Vec<Vec<u8>> = (0..48).map(|i| pattern(64 + i * 29, i as u64)).collect();
    for algo in CcAlgo::ALL {
        let fab = Fabric::new(WireConfig::with_loss(0.05, SEED));
        let cfg = RdConfig {
            window: 16,
            rto: Duration::from_millis(5),
            max_rto: Duration::from_millis(30),
            cc: algo,
            ..RdConfig::default()
        };
        let tx = RdConduit::bind(&fab, Addr::new(2, 801), cfg.clone()).unwrap();
        let rx = RdConduit::bind(&fab, Addr::new(3, 801), cfg).unwrap();
        let msgs = &msgs;
        let flushed = AtomicBool::new(false);
        std::thread::scope(|sc| {
            let rxh = sc.spawn(|| {
                let mut got = Vec::new();
                for _ in 0..msgs.len() {
                    let (_, d) = rx.recv_from(Some(Duration::from_secs(30))).unwrap();
                    got.push(d.to_vec());
                }
                // A conduit makes progress only inside a call on it: keep
                // acknowledging retransmissions until the sender's flush
                // returns. Anything delivered now is a duplicate.
                while !flushed.load(Ordering::Acquire) {
                    if let Ok((_, d)) = rx.recv_from(Some(Duration::from_millis(1))) {
                        got.push(d.to_vec());
                    }
                }
                got
            });
            for m in msgs {
                tx.send_to(rx.local_addr(), Bytes::from(m.clone()).into())
                    .unwrap();
            }
            let flush = tx.flush(Duration::from_secs(30));
            flushed.store(true, Ordering::Release);
            flush.unwrap();
            let got = rxh.join().unwrap();
            assert_eq!(
                got, *msgs,
                "[{algo}] rdgram reordered or corrupted delivery"
            );
        });
    }
}
