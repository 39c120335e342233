//! Differential determinism across RX drive modes.
//!
//! The same seeded lossy run — one sender thread, so every Bernoulli loss
//! decision is consumed in send order — must yield byte-identical per-QP
//! CQE payload sequences whether the receive side is caller-polled,
//! per-QP threaded, or sharded (1 or 4 shards). Anything less means the
//! drive mode leaks into protocol behaviour and chaos replay is a lie.

use std::time::{Duration, Instant};

use datagram_iwarp::cc::CcAlgo;
use datagram_iwarp::chaos::{run_plan, ChaosOpts};
use datagram_iwarp::common::rng::derive_seed;
use datagram_iwarp::verbs::read::{BulkRead, BulkReadConfig, RecoveryConfig, SignalInterval};
use datagram_iwarp::net::{Addr, Fabric, FaultEvent, FaultPlan, LossModel, NodeId, WireConfig};
use datagram_iwarp::telemetry::Snapshot;
use datagram_iwarp::verbs::wr::{RecvWr, SendWr};
use datagram_iwarp::verbs::{
    Access, BurstPath, Cq, CqeStatus, Device, DeviceConfig, QpConfig, ShardConfig,
};

const QPS: usize = 8;
const MSGS: u32 = 30;
const SLOT: usize = 128;
const SEED: u64 = 0xD1FF_5EED;

#[derive(Clone, Copy, Debug)]
enum RxMode {
    /// `QpConfig::poll_mode`: the test drives `progress()` itself.
    Poll,
    /// Dedicated per-QP engine threads (`shards == 0`).
    Threaded,
    /// Shared shard pool of the given size.
    Sharded(usize),
}

/// Runs the canonical lossy workload under one RX mode and returns, per
/// QP, the payloads in CQE order.
fn run(mode: RxMode) -> Vec<Vec<Vec<u8>>> {
    run_with(mode, BurstPath::PerPacket).0
}

/// [`run`] with the batching discipline as a knob, also returning the
/// final telemetry snapshot. Under [`BurstPath::Burst`] the client posts
/// each round as one `post_send_batch` doorbell and the receivers (poll
/// mode only) drive `progress_burst`; the wire traffic must nonetheless
/// be byte-identical to the per-packet run under the same seed.
fn run_with(mode: RxMode, burst: BurstPath) -> (Vec<Vec<Vec<u8>>>, Snapshot) {
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.10),
        seed: SEED,
        ..WireConfig::default()
    });
    let shards = match mode {
        RxMode::Sharded(n) => n,
        _ => 0,
    };
    let server = Device::with_config(
        &fab,
        NodeId(1),
        DeviceConfig {
            shard: ShardConfig::with_shards(shards),
            ..DeviceConfig::default()
        },
    );
    let qp_cfg = QpConfig {
        poll_mode: matches!(mode, RxMode::Poll),
        // The A/B comparison differs in the batching knob alone.
        burst_path: burst,
        ..QpConfig::default()
    };

    let mut rx = Vec::new();
    for _ in 0..QPS {
        let send_cq = Cq::new(8);
        let recv_cq = Cq::new(MSGS as usize + 8);
        let qp = server
            .create_ud_qp(None, &send_cq, &recv_cq, qp_cfg.clone())
            .unwrap();
        match mode {
            RxMode::Poll | RxMode::Threaded => assert!(!qp.is_sharded()),
            RxMode::Sharded(_) => assert!(qp.is_sharded()),
        }
        let mr = server.register(MSGS as usize * SLOT, Access::Local);
        for i in 0..MSGS as usize {
            qp.post_recv(RecvWr {
                wr_id: i as u64,
                mr: mr.clone(),
                offset: (i * SLOT) as u64,
                len: SLOT as u32,
            })
            .unwrap();
        }
        rx.push((qp, recv_cq, mr));
    }
    let dests: Vec<_> = rx.iter().map(|(qp, _, _)| qp.dest()).collect();

    // Single sender thread: the wire's seeded RNG sees sends in exactly
    // this order in every mode, so the set of dropped datagrams is fixed.
    let client = Device::new(&fab, NodeId(0));
    let c_send = Cq::new(64);
    let c_recv = Cq::new(8);
    let cqp = client
        .create_ud_qp(
            None,
            &c_send,
            &c_recv,
            QpConfig {
                poll_mode: true,
                burst_path: burst,
                ..QpConfig::default()
            },
        )
        .unwrap();
    for seq in 0..MSGS {
        let payloads: Vec<Vec<u8>> = dests
            .iter()
            .enumerate()
            .map(|(qi, _)| {
                let mut payload = vec![0u8; 96];
                payload[0] = qi as u8;
                payload[1..5].copy_from_slice(&seq.to_le_bytes());
                for (i, b) in payload.iter_mut().enumerate().skip(5) {
                    *b = (i as u8).wrapping_mul(seq as u8 | 1) ^ qi as u8;
                }
                payload
            })
            .collect();
        match burst {
            BurstPath::PerPacket => {
                for (payload, dest) in payloads.into_iter().zip(&dests) {
                    cqp.post_send(u64::from(seq), payload, *dest).unwrap();
                    while c_send.poll().is_some() {}
                }
            }
            BurstPath::Burst => {
                // One doorbell per round. Destinations are grouped in
                // first-seen order, which here is exactly the per-packet
                // posting order — same wire order, same RNG draws.
                let wrs: Vec<SendWr> = payloads
                    .into_iter()
                    .zip(&dests)
                    .map(|(payload, dest)| SendWr::new(u64::from(seq), payload, *dest))
                    .collect();
                cqp.post_send_batch(&wrs).unwrap();
                while c_send.poll().is_some() {}
            }
        }
    }

    // Drain until every QP has been quiet for a while. In poll mode the
    // drain loop itself is the RX engine.
    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); QPS];
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < Duration::from_millis(300) {
        let mut any = false;
        for (qi, (qp, recv_cq, mr)) in rx.iter().enumerate() {
            if matches!(mode, RxMode::Poll) {
                // Falls back to the single-step engine under PerPacket.
                qp.progress_burst(32, Duration::from_millis(1));
            }
            while let Some(cqe) = recv_cq.poll() {
                assert_eq!(cqe.status, CqeStatus::Success);
                let data = mr
                    .read_vec(cqe.wr_id * SLOT as u64, cqe.byte_len as usize)
                    .unwrap();
                out[qi].push(data);
                any = true;
            }
        }
        if any {
            quiet_since = Instant::now();
        } else {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    (out, fab.telemetry().snapshot())
}

#[test]
fn rx_mode_does_not_change_delivered_bytes() {
    let poll = run(RxMode::Poll);
    let threaded = run(RxMode::Threaded);
    let shard1 = run(RxMode::Sharded(1));
    let shard4 = run(RxMode::Sharded(4));

    let delivered: usize = poll.iter().map(Vec::len).sum();
    assert!(delivered > 0, "seeded 10 % loss run delivered nothing");
    assert!(
        delivered < QPS * MSGS as usize,
        "10 % loss model dropped nothing — seed no longer exercises loss"
    );

    for (qi, baseline) in poll.iter().enumerate() {
        assert_eq!(
            baseline, &threaded[qi],
            "qp #{qi}: threaded RX diverged from poll-mode"
        );
        assert_eq!(
            baseline, &shard1[qi],
            "qp #{qi}: 1-shard RX diverged from poll-mode"
        );
        assert_eq!(
            baseline, &shard4[qi],
            "qp #{qi}: 4-shard RX diverged from poll-mode"
        );
    }
}

/// Replaying the same mode twice must also be bit-stable (guards against
/// nondeterminism *within* a mode, not just across modes).
#[test]
fn sharded_rx_is_replay_stable() {
    let a = run(RxMode::Sharded(4));
    let b = run(RxMode::Sharded(4));
    assert_eq!(a, b, "same seed, same mode, different bytes");
}

/// Wire-level counters that must be identical across the batching knob:
/// the burst path may only amortize *how* packets move (lock rounds,
/// notifies, CQ pushes), never *what* moves or what the loss RNG sees.
/// `core.qp.tx_bursts` is the intentionally-different amortization
/// counter and is excluded.
const WIRE_COUNTERS: &[&str] = &[
    "simnet.fabric.tx_packets",
    "simnet.fabric.tx_bytes",
    "simnet.fabric.delivered",
    "simnet.fabric.dropped_loss",
    "simnet.fabric.pkts_dropped",
    "simnet.dgram.tx_datagrams",
    "simnet.dgram.tx_fragments",
    "simnet.dgram.rx_datagrams",
    "core.qp.tx_msgs",
    "core.qp.tx_segments",
    "core.rx.messages",
    "core.rx.segments",
    "core.rx.crc_errors",
    "core.rx.malformed",
];

/// The tentpole's A/B contract: under a fixed seed the burst datapath is
/// byte-identical on the wire to per-packet — same delivered payloads in
/// the same CQE order, same per-packet loss decisions, same wire-level
/// telemetry — differing only in the amortization counters.
#[test]
fn burst_path_is_wire_identical_to_per_packet() {
    let (pp_out, pp_tel) = run_with(RxMode::Poll, BurstPath::PerPacket);
    let (b_out, b_tel) = run_with(RxMode::Poll, BurstPath::Burst);

    let delivered: usize = pp_out.iter().map(Vec::len).sum();
    assert!(delivered > 0, "seeded 10 % loss run delivered nothing");
    for (qi, baseline) in pp_out.iter().enumerate() {
        assert_eq!(
            baseline, &b_out[qi],
            "qp #{qi}: burst path diverged from per-packet"
        );
    }

    for name in WIRE_COUNTERS {
        assert_eq!(
            pp_tel.get(name),
            b_tel.get(name),
            "wire-level counter {name} diverged across the batching knob"
        );
    }

    // Prove the knob actually engaged: the burst run flushed doorbells,
    // the per-packet run never did. (The lock-amortization claim lives
    // in the `burst` bench, which gates on the ring counters and on the
    // retired shared-lock counter staying absent.)
    assert_eq!(pp_tel.get("core.qp.tx_bursts"), Some(0));
    assert!(b_tel.get("core.qp.tx_bursts").unwrap_or(0) > 0);
}

/// The same contract under the full chaos adversary (drop, duplicate,
/// reorder, corrupt, truncate): a seeded `FaultPlan` must produce
/// byte-identical fault traces and identical verdicts whether the QPs
/// run per-packet or burst.
#[test]
fn burst_path_preserves_chaos_fault_traces() {
    let opts_pp = ChaosOpts {
        send_msgs: 4,
        write_msgs: 4,
        read_msgs: 2,
        dgrams: 16,
        burst_path: BurstPath::PerPacket,
        ..ChaosOpts::default()
    };
    let opts_b = ChaosOpts {
        burst_path: BurstPath::Burst,
        ..opts_pp.clone()
    };
    // Two plans from the tier-1 sweep's seed space.
    for k in [2u64, 3u64] {
        let seed = derive_seed(0x7E57_C4A0, k);
        let a = run_plan(seed, &opts_pp);
        let b = run_plan(seed, &opts_b);
        assert_eq!(
            a.fault_trace, b.fault_trace,
            "seed {seed:#x}: verbs fault traces diverged across the batching knob"
        );
        assert_eq!(
            a.socket_fault_trace, b.socket_fault_trace,
            "seed {seed:#x}: socket fault traces diverged"
        );
        assert_eq!(a.ok(), b.ok(), "seed {seed:#x}: verdicts diverged");
        assert_eq!(a.verbs, b.verbs, "seed {seed:#x}: verbs summaries diverged");
        assert_eq!(a.socket, b.socket, "seed {seed:#x}: socket summaries diverged");
    }
}

/// Like [`run_with`], but with a full chaos adversary installed on the
/// fabric and the shard pool (optionally core-pinned) as the RX engine.
/// Returns per-QP delivered payloads plus the fabric's injected-fault
/// trace. Every fault decision happens at transmit time on the single
/// sender thread against link-owned RNG state, so both outputs must be
/// byte-stable across shard counts and pinning.
fn run_chaos_sharded(shards: usize, pin: bool) -> (Vec<Vec<Vec<u8>>>, Vec<FaultEvent>) {
    let fab = Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.05),
        seed: SEED,
        ..WireConfig::default()
    });
    fab.install_fault_plan(FaultPlan {
        drop: LossModel::bernoulli(0.05),
        duplicate: 0.05,
        reorder: 0.10,
        corrupt: 0.02,
        ..FaultPlan::quiet(derive_seed(SEED, 0xC4A0))
    });
    let server = Device::with_config(
        &fab,
        NodeId(1),
        DeviceConfig {
            shard: ShardConfig {
                pin_cores: pin,
                ..ShardConfig::with_shards(shards)
            },
            ..DeviceConfig::default()
        },
    );
    let qp_cfg = QpConfig {
        poll_mode: false,
        ..QpConfig::default()
    };
    let mut rx = Vec::new();
    for _ in 0..QPS {
        let send_cq = Cq::new(8);
        let recv_cq = Cq::new(MSGS as usize * 2 + 8);
        let qp = server
            .create_ud_qp(None, &send_cq, &recv_cq, qp_cfg.clone())
            .unwrap();
        assert!(qp.is_sharded());
        let mr = server.register(2 * MSGS as usize * SLOT, Access::Local);
        for i in 0..2 * MSGS as usize {
            qp.post_recv(RecvWr {
                wr_id: i as u64,
                mr: mr.clone(),
                offset: (i * SLOT) as u64,
                len: SLOT as u32,
            })
            .unwrap();
        }
        rx.push((qp, recv_cq, mr));
    }
    let dests: Vec<_> = rx.iter().map(|(qp, _, _)| qp.dest()).collect();
    let client = Device::new(&fab, NodeId(0));
    let c_send = Cq::new(64);
    let c_recv = Cq::new(8);
    let cqp = client
        .create_ud_qp(
            None,
            &c_send,
            &c_recv,
            QpConfig {
                poll_mode: true,
                ..QpConfig::default()
            },
        )
        .unwrap();
    for seq in 0..MSGS {
        for (qi, dest) in dests.iter().enumerate() {
            let mut payload = vec![0u8; 96];
            payload[0] = qi as u8;
            payload[1..5].copy_from_slice(&seq.to_le_bytes());
            cqp.post_send(u64::from(seq), payload, *dest).unwrap();
            while c_send.poll().is_some() {}
        }
    }
    fab.chaos_flush();

    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); QPS];
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < Duration::from_millis(300) {
        let mut any = false;
        for (qi, (_, recv_cq, mr)) in rx.iter().enumerate() {
            while let Some(cqe) = recv_cq.poll() {
                if cqe.status != CqeStatus::Success {
                    continue;
                }
                let data = mr
                    .read_vec(cqe.wr_id * SLOT as u64, cqe.byte_len as usize)
                    .unwrap();
                out[qi].push(data);
                any = true;
            }
        }
        if any {
            quiet_since = Instant::now();
        } else {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let trace = fab.fault_trace();
    (out, trace)
}

/// The per-link seeding contract across the scale-out axes: a fixed seed
/// produces byte-identical delivered payloads *and* chaos fault traces
/// whether the RX side runs 1 shard or 4, pinned or unpinned. Shard
/// interleaving and scheduler placement must never reach the wire RNGs.
#[test]
fn shard_count_and_pinning_do_not_change_bytes_or_faults() {
    let (base_out, base_trace) = run_chaos_sharded(1, false);
    let delivered: usize = base_out.iter().map(Vec::len).sum();
    assert!(delivered > 0, "chaos run delivered nothing");
    assert!(
        !base_trace.is_empty(),
        "fault plan injected nothing — the adversary is not engaged"
    );
    for (shards, pin) in [(4, false), (1, true), (4, true)] {
        let (out, trace) = run_chaos_sharded(shards, pin);
        assert_eq!(
            base_out, out,
            "{shards}-shard pin={pin}: delivered payloads diverged from 1-shard unpinned"
        );
        assert_eq!(
            base_trace, trace,
            "{shards}-shard pin={pin}: fault trace diverged from 1-shard unpinned"
        );
    }
}

/// Runs a loss-free streaming bulk read under one (batching, shard count,
/// congestion controller) combination and returns the delivered bytes
/// plus the final telemetry snapshot. The responder is sharded (the read
/// responses are generated on shard threads); the requester drives the
/// engine from the test thread in poll mode. RTO timers are pinned far
/// beyond the transfer time so a loss-free run must never repost — any
/// wire-counter drift across combinations is a real protocol leak, not
/// timer noise.
fn run_bulk_read(burst: BurstPath, shards: usize, algo: CcAlgo) -> (Vec<u8>, Snapshot) {
    const TOTAL: usize = 12 * 8 * 1024;
    let fab = Fabric::new(WireConfig {
        seed: SEED,
        ..WireConfig::default()
    });
    let requester = Device::new(&fab, NodeId(0));
    let responder = Device::with_config(
        &fab,
        NodeId(1),
        DeviceConfig {
            shard: ShardConfig::with_shards(shards),
            ..DeviceConfig::default()
        },
    );
    let recv_cq = Cq::new(8);
    let qa = requester
        .create_ud_qp(
            None,
            &Cq::new(64),
            &recv_cq,
            QpConfig {
                poll_mode: true,
                burst_path: burst,
                read_ttl: Duration::from_secs(30),
                ..QpConfig::default()
            },
        )
        .unwrap();
    let qb = responder
        .create_ud_qp(
            None,
            &Cq::new(64),
            &Cq::new(64),
            QpConfig {
                burst_path: burst,
                ..QpConfig::default()
            },
        )
        .unwrap();
    assert!(qb.is_sharded());

    let data: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
    let src = responder.register_with(&data, Access::RemoteRead);
    let sink = requester.register(TOTAL, Access::Local);
    let mut xfer = BulkRead::new(
        BulkReadConfig {
            batch_bytes: 8 * 1024,
            window: 4,
            signal: SignalInterval::Every(2),
            recovery: RecoveryConfig {
                algo,
                initial_rto: Duration::from_secs(5),
                min_rto: Duration::from_secs(5),
                max_rto: Duration::from_secs(10),
                ..RecoveryConfig::default()
            },
            ..BulkReadConfig::default()
        },
        &sink,
        0,
        TOTAL as u64,
        qb.dest(),
        src.stag(),
        0,
    );
    let start = Instant::now();
    let mut finished = false;
    while start.elapsed() < Duration::from_secs(10) {
        qa.progress_burst(256, Duration::from_micros(100));
        if xfer.step(&qa, start.elapsed()).expect("bulk read step") {
            finished = true;
            break;
        }
    }
    assert!(finished, "loss-free bulk read did not finish");
    let report = xfer.report();
    assert!(!report.dead);
    assert_eq!(report.reposts, 0, "loss-free transfer reposted");
    assert_eq!(report.bytes, TOTAL as u64);
    let got = sink.read_vec(0, TOTAL).unwrap();
    assert_eq!(got, data, "bulk read delivered wrong bytes");
    (got, fab.telemetry().snapshot())
}

/// The read engine's determinism contract: a loss-free bulk read delivers
/// identical bytes and identical wire-level traffic across the batching
/// knob, the responder shard count, and every congestion controller.
/// Congestion control may change *when* batches are requested (window
/// growth) but never *what* crosses the wire on a clean network.
#[test]
fn bulk_read_is_wire_identical_across_paths_shards_and_cc() {
    let mut baseline: Option<(Vec<u8>, Snapshot)> = None;
    for burst in [BurstPath::PerPacket, BurstPath::Burst] {
        for shards in [1usize, 4] {
            for algo in CcAlgo::ALL {
                let (bytes, tel) = run_bulk_read(burst, shards, algo);
                let Some((base_bytes, base_tel)) = &baseline else {
                    baseline = Some((bytes, tel));
                    continue;
                };
                assert_eq!(
                    base_bytes, &bytes,
                    "{burst:?}/{shards}-shard/{algo:?}: delivered bytes diverged"
                );
                for name in WIRE_COUNTERS {
                    assert_eq!(
                        base_tel.get(name),
                        tel.get(name),
                        "{burst:?}/{shards}-shard/{algo:?}: wire counter {name} diverged"
                    );
                }
            }
        }
    }
}

/// The per-link RNG ownership contract at the wire level: link A's loss
/// draw sequence (and therefore its delivered-packet pattern) is
/// unchanged when link B's traffic is interleaved between A's sends. On
/// the old global-RNG fabric, B's rolls advanced A's stream.
#[test]
fn link_a_draws_unchanged_by_link_b_traffic() {
    let pattern_at_a = |with_b: bool| -> Vec<bool> {
        let fab = Fabric::new(WireConfig {
            loss: LossModel::bernoulli(0.2),
            seed: SEED,
            ..WireConfig::default()
        });
        let tx = fab.bind(Addr::new(0, 1)).unwrap();
        let a = fab.bind(Addr::new(1, 1)).unwrap();
        let b = fab.bind(Addr::new(2, 1)).unwrap();
        let mut delivered = Vec::new();
        for i in 0..400u32 {
            let before = a.pending();
            tx.send_to(a.local_addr(), bytes::Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
            delivered.push(a.pending() > before);
            if with_b {
                tx.send_to(b.local_addr(), bytes::Bytes::from(vec![0u8; 32]))
                    .unwrap();
            }
        }
        delivered
    };
    let alone = pattern_at_a(false);
    let shared = pattern_at_a(true);
    assert!(alone.iter().any(|d| !*d), "20 % loss dropped nothing");
    assert_eq!(
        alone, shared,
        "link B's traffic perturbed link A's loss draw sequence"
    );
}

/// The replicated-log workload's determinism contract (PR 9): one seeded
/// lossy run — drops, duplicates, reorders, a mid-run leader freeze with
/// fail-over, hole refetches over `BulkRead` — must produce an identical
/// event/lease history and an identical fault trace across the doorbell
/// path, the device shard count, and every refetch congestion
/// controller. Shards are inert for poll-mode QPs, the refetch window
/// fits inside every algo's initial cwnd, and bursting only groups
/// doorbells; none of the three may leak into protocol behaviour, or
/// `replog --replay <seed>` stops reproducing failures byte-for-byte.
#[test]
fn replog_history_is_identical_across_burst_shards_and_cc() {
    use datagram_iwarp::apps::replog::{Cluster, History, ReplogConfig};

    let run = |burst: BurstPath, shards: usize, algo: CcAlgo| -> (History, Vec<FaultEvent>) {
        let fab = Fabric::new(WireConfig::default());
        fab.install_fault_plan(FaultPlan::from_seed(derive_seed(SEED, 0x9E09)));
        let cfg = ReplogConfig {
            entries: 10,
            freeze: Some((300, 500)),
            shards,
            burst,
            cc: algo,
            ..ReplogConfig::default()
        };
        let mut cluster = Cluster::new(&fab, cfg);
        let out = cluster.run();
        assert!(
            out.converged,
            "{burst:?}/{shards}-shard/{algo:?}: replog run failed to converge"
        );
        fab.chaos_flush();
        (out.history, fab.fault_trace())
    };

    let mut baseline: Option<(History, Vec<FaultEvent>)> = None;
    for burst in [BurstPath::PerPacket, BurstPath::Burst] {
        for shards in [1usize, 4] {
            for algo in CcAlgo::ALL {
                let (history, trace) = run(burst, shards, algo);
                let Some((base_hist, base_trace)) = &baseline else {
                    baseline = Some((history, trace));
                    continue;
                };
                assert_eq!(
                    base_hist.digest(),
                    history.digest(),
                    "{burst:?}/{shards}-shard/{algo:?}: history digest diverged"
                );
                assert_eq!(
                    base_hist, &history,
                    "{burst:?}/{shards}-shard/{algo:?}: event/lease history diverged"
                );
                assert_eq!(
                    base_trace, &trace,
                    "{burst:?}/{shards}-shard/{algo:?}: fault trace diverged"
                );
            }
        }
    }
}
