//! Tier-1 loss-recovery gate: the congestion-control knob must never
//! change *what* the reliable conduits deliver, and must be invisible to
//! the layers that don't use it.
//!
//! Two contracts (see DESIGN.md "Loss recovery & congestion control"):
//!
//! * **Exact delivery under every algorithm.** The same seeded lossy
//!   wire run under `fixed`, `newreno` and `cubic` yields byte-identical
//!   in-order delivery for both the byte stream and the reliable
//!   datagram conduit — the controller shapes *when* packets move, never
//!   *what* arrives.
//! * **Cross-algorithm chaos determinism.** The chaos harness's verbs
//!   and socket phases run on the unreliable paths, which the controller
//!   does not touch: their fault traces must be bit-identical whatever
//!   `ChaosOpts::cc` says, and stable across repeat runs (replay).

use std::time::Duration;

use bytes::Bytes;
use datagram_iwarp::chaos::{run_plan, ChaosOpts};
use datagram_iwarp::cc::CcAlgo;
use datagram_iwarp::common::rng::derive_seed;
use datagram_iwarp::net::rdgram::RdConfig;
use datagram_iwarp::net::stream::StreamConfig;
use datagram_iwarp::net::{
    Addr, Fabric, NodeId, RdConduit, StreamConduit, StreamListener, WireConfig,
};

const ALGOS: [CcAlgo; 3] = [CcAlgo::Fixed, CcAlgo::NewReno, CcAlgo::Cubic];
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
    for algo in ALGOS {
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
    for algo in ALGOS {
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
        std::thread::scope(|sc| {
            let rxh = sc.spawn(|| {
                let mut got = Vec::new();
                for _ in 0..msgs.len() {
                    let (_, d) = rx.recv_from(Some(Duration::from_secs(30))).unwrap();
                    got.push(d.to_vec());
                }
                got
            });
            for m in msgs {
                tx.send_to(rx.local_addr(), Bytes::from(m.clone())).unwrap();
            }
            tx.flush(Duration::from_secs(30)).unwrap();
            let got = rxh.join().unwrap();
            assert_eq!(got, *msgs, "[{algo}] rdgram reordered or corrupted delivery");
        });
    }
}

/// The chaos verbs/socket fault traces are a pure function of the plan
/// seed — switching `ChaosOpts::cc` (which only steers the reliable
/// phase) must leave them bit-identical, and repeat runs must replay
/// exactly.
#[test]
fn chaos_traces_are_cc_invariant_and_replay_stable() {
    let opts = |cc| ChaosOpts {
        send_msgs: 4,
        write_msgs: 4,
        read_msgs: 2,
        dgrams: 16,
        cc,
        ..ChaosOpts::default()
    };
    for i in 0..2u64 {
        let seed = derive_seed(SEED, i);
        let baseline = run_plan(seed, &opts(CcAlgo::Fixed));
        assert!(
            baseline.ok(),
            "plan seed={seed:#018x} under fixed:\n{}",
            baseline.render_failure()
        );
        for algo in [CcAlgo::Fixed, CcAlgo::NewReno, CcAlgo::Cubic] {
            let report = run_plan(seed, &opts(algo));
            assert!(
                report.ok(),
                "plan seed={seed:#018x} under {algo}:\n{}",
                report.render_failure()
            );
            assert_eq!(
                report.fault_trace, baseline.fault_trace,
                "[{algo}] verbs fault trace diverged from fixed (seed {seed:#x})"
            );
            assert_eq!(
                report.socket_fault_trace, baseline.socket_fault_trace,
                "[{algo}] socket fault trace diverged from fixed (seed {seed:#x})"
            );
        }
    }
}
