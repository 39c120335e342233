//! Replay anchors: every seeded run this repo promises to reproduce
//! byte-for-byte, checked against the digests committed in
//! `tests/anchors.txt`.
//!
//! Each check runs one workload under one configuration and compares
//! what it recomputes with the anchor, never with another run. A knob
//! that leaks into protocol behaviour (RX drive mode, shard count,
//! doorbell batching, congestion controller) therefore moves an anchor, and
//! so does any change to what the workload puts on the wire.
//!
//! Scenarios:
//! * `chaos/S`, S = 1..5: what `chaos --replay S` runs. Streams are the
//!   `[verbs]`, `[socket]` and `[read]` fault traces plus a `summary` of
//!   the outcome counts.
//! * `replog/S`, S = 1..3: what `replog --replay S` runs. Streams are the
//!   event/lease `history` digest and the `faults` trace.
//! * `ud-lossy`, `ud-chaos`, `bulk-read` and `replog-failover`: the
//!   workloads below, each run under every configuration it supports.
//! * `rc-lossless`: a poll-mode RC pair on a clean wire, anchoring the
//!   connection path (stream conduit, MPA framing, RC verbs).
//!
//! One check compares two runs instead of an anchor: `rd-lossy` sends
//! over the reliable-datagram LLP, whose wire depends on thread timing
//! when the QPs are threaded, so only its delivered payloads are held
//! fixed, and the same across the poll and threaded drive modes.
//!
//! On a mismatch a check panics and prints every line it recomputed, the
//! moved ones marked. Moving an anchor on purpose means pasting those
//! lines into `tests/anchors.txt` and giving the reason in CHANGES.md.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use datagram_iwarp::apps::replog::{Cluster, History, ReplogConfig};
use datagram_iwarp::cc::CcAlgo;
use datagram_iwarp::chaos::replog::{run_replog_plan, ReplogOpts};
use datagram_iwarp::chaos::{run_plan, ChaosOpts};
use datagram_iwarp::common::rng::derive_seed;
use datagram_iwarp::net::stream::StreamConfig;
use datagram_iwarp::net::{Addr, Fabric, FaultEvent, FaultPlan, LossModel, NodeId, WireConfig};
use datagram_iwarp::telemetry::Snapshot;
use datagram_iwarp::verbs::read::{BulkRead, BulkReadConfig, RecoveryConfig, SignalInterval};
use datagram_iwarp::verbs::wr::{RecvWr, SendWr};
use datagram_iwarp::verbs::{
    Access, Cq, Cqe, CqeStatus, Device, DeviceConfig, QpConfig, RcQp, ShardConfig,
};

const ANCHORS: &str = include_str!("anchors.txt");

const CHAOS_SEEDS: RangeInclusive<u64> = 1..=5;
const CHAOS_STREAMS: [&str; 4] = ["verbs", "socket", "read", "summary"];
const REPLOG_SEEDS: RangeInclusive<u64> = 1..=3;
const REPLOG_STREAMS: [&str; 2] = ["history", "faults"];

const QPS: usize = 8;
const MSGS: u32 = 30;
const SLOT: usize = 128;
const SEED: u64 = 0xD1FF_5EED;

// ---------------------------------------------------------------------------
// The anchor file.
// ---------------------------------------------------------------------------

/// One recomputed stream: scenario, stream name, and its lines.
type Stream = (String, &'static str, Vec<String>);

/// Every (scenario, stream) some check below recomputes.
/// `anchor_file_matches_the_checks` holds `tests/anchors.txt` to exactly
/// this set, so a stream a check adds must be listed here as well as
/// anchored.
fn recomputed() -> BTreeSet<(String, String)> {
    let mut set = BTreeSet::new();
    let mut add = |scenario: String, streams: &[&str]| {
        for s in streams {
            set.insert((scenario.clone(), (*s).to_owned()));
        }
    };
    add("ud-lossy".into(), &["payloads", "wire"]);
    add("ud-chaos".into(), &["payloads", "faults"]);
    add("bulk-read".into(), &["wire"]);
    add("replog-failover".into(), &REPLOG_STREAMS);
    add("rc-lossless".into(), &["payloads", "cqes", "wire"]);
    for s in CHAOS_SEEDS {
        add(format!("chaos/{s}"), &CHAOS_STREAMS);
    }
    for s in REPLOG_SEEDS {
        add(format!("replog/{s}"), &REPLOG_STREAMS);
    }
    set
}

/// `tests/anchors.txt` as `(scenario, stream) -> line`, with `#` comments
/// and blank lines dropped.
fn anchors() -> BTreeMap<(String, String), String> {
    let mut map = BTreeMap::new();
    for raw in ANCHORS.lines() {
        let words: Vec<&str> = raw
            .split('#')
            .next()
            .unwrap_or("")
            .split_whitespace()
            .collect();
        if words.is_empty() {
            continue;
        }
        assert!(words.len() == 4, "malformed anchor line: {raw:?}");
        let key = (words[0].to_owned(), words[1].to_owned());
        assert!(
            map.insert(key, words.join(" ")).is_none(),
            "duplicate anchor line: {raw:?}"
        );
    }
    map
}

/// A stream in the file's format: `<scenario> <stream> n=<count>
/// fnv=<FNV-1a 64 over the lines, each followed by '\n'>`.
fn anchor_line(scenario: &str, stream: &str, lines: &[String]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{scenario} {stream} n={} fnv={h:016x}", lines.len())
}

/// Compares each recomputed stream with its anchor. On any difference it
/// panics with every anchor line it recomputed, the moved ones marked,
/// followed by the lines each moved stream hashed, so the message names
/// what moved (a counter, a fault) and not only that its digest did.
fn check(config: &str, streams: &[Stream]) {
    let anchors = anchors();
    let mut printed = String::new();
    let mut contents = String::new();
    let mut moved = 0;
    for (scenario, stream, lines) in streams {
        let key = (scenario.clone(), (*stream).to_owned());
        let line = anchor_line(scenario, stream, lines);
        let note = match anchors.get(&key) {
            Some(was) if *was == line => None,
            Some(was) => {
                let was = was.splitn(3, ' ').nth(2).unwrap_or_default();
                Some(format!("moved, was {was}"))
            }
            None => Some("no anchor".to_owned()),
        };
        let Some(note) = note else {
            let _ = writeln!(printed, "{line}");
            continue;
        };
        moved += 1;
        let _ = writeln!(printed, "{line}  # {note}");
        let _ = writeln!(contents, "\n{scenario} {stream}, recomputed:");
        for l in lines {
            let _ = writeln!(contents, "  {l}");
        }
    }
    assert!(
        moved == 0,
        "{moved} replay anchor(s) moved under {config}. If that is intended, paste these \
         lines into tests/anchors.txt and give the reason in CHANGES.md:\n{printed}{contents}"
    );
}

/// A fault trace as the lines `chaos --replay S --verbose` prints.
fn trace_lines(trace: &[FaultEvent]) -> Vec<String> {
    trace.iter().map(ToString::to_string).collect()
}

/// `tests/anchors.txt` holds exactly one line per (scenario, stream) that
/// a check recomputes: no orphan line, no stream without a line.
#[test]
fn anchor_file_matches_the_checks() {
    let file: BTreeSet<(String, String)> = anchors().into_keys().collect();
    let checked = recomputed();
    let orphans: Vec<_> = file.difference(&checked).collect();
    let missing: Vec<_> = checked.difference(&file).collect();
    assert!(
        orphans.is_empty() && missing.is_empty(),
        "tests/anchors.txt is stale.\n  lines no check recomputes: {orphans:?}\n  \
         recomputed streams with no line: {missing:?}"
    );
}

// ---------------------------------------------------------------------------
// chaos/S and replog/S: the replay bins' seeds.
// ---------------------------------------------------------------------------

/// `chaos --replay S` under `opts`' knobs: asserts the plan passes and
/// returns its four streams.
fn chaos_replay(seed: u64, mut opts: ChaosOpts) -> Vec<Stream> {
    opts.forensic = true;
    let r = run_plan(seed, &opts);
    assert!(r.ok(), "chaos plan {seed} failed:\n{}", r.render_failure());
    let summary = vec![
        format!("verbs {:?}", r.verbs),
        format!("socket {:?}", r.socket),
        format!("bulk.batches {}", r.bulk.batches),
        format!("bulk.reposts {}", r.bulk.reposts),
    ];
    let lines = [
        trace_lines(&r.fault_trace),
        trace_lines(&r.socket_fault_trace),
        trace_lines(&r.read_fault_trace),
        summary,
    ];
    CHAOS_STREAMS
        .into_iter()
        .zip(lines)
        .map(|(stream, lines)| (format!("chaos/{seed}"), stream, lines))
        .collect()
}

fn replog_streams(scenario: &str, history: &History, faults: &[FaultEvent]) -> Vec<Stream> {
    let (digest, events) = (history.digest(), history.events.len());
    let lines = [
        vec![format!("digest={digest:016x} events={events}")],
        trace_lines(faults),
    ];
    REPLOG_STREAMS
        .into_iter()
        .zip(lines)
        .map(|(stream, lines)| (scenario.to_owned(), stream, lines))
        .collect()
}

/// The seeds `chaos --replay` is documented with reproduce their fault
/// traces and outcome counts.
#[test]
fn chaos_replays_match_anchors() {
    let streams: Vec<Stream> = CHAOS_SEEDS
        .flat_map(|seed| chaos_replay(seed, ChaosOpts::default()))
        .collect();
    check("the default ChaosOpts", &streams);
}

/// `ChaosOpts::cc` steers only the reliable phase, whose trace is not
/// anchored: under `NewReno`, chaos/1 and chaos/2 must pass and
/// reproduce every anchored stream.
#[test]
fn chaos_traces_are_cc_invariant() {
    let opts = ChaosOpts {
        cc: CcAlgo::NewReno,
        ..ChaosOpts::default()
    };
    let streams: Vec<Stream> = [1, 2]
        .into_iter()
        .flat_map(|seed| chaos_replay(seed, opts.clone()))
        .collect();
    check("CcAlgo::NewReno", &streams);
}

/// The seeds `replog --replay` is documented with pass, converge, and
/// reproduce their history and fault trace.
#[test]
fn replog_replays_match_anchors() {
    let mut streams = Vec::new();
    for seed in REPLOG_SEEDS {
        let rep = run_replog_plan(seed, &ReplogOpts::default());
        assert!(
            rep.ok() && rep.outcome.converged,
            "{}",
            rep.render_failure()
        );
        let scenario = format!("replog/{seed}");
        streams.extend(replog_streams(
            &scenario,
            &rep.outcome.history,
            &rep.fault_trace,
        ));
    }
    check("the default ReplogOpts", &streams);
}

// ---------------------------------------------------------------------------
// ud-lossy and ud-chaos: 8 UD QPs under every RX drive mode.
// ---------------------------------------------------------------------------

/// How the client posts each round's sends.
#[derive(Clone, Copy, Debug)]
enum Sends {
    /// One `post_send` per datagram.
    Singles,
    /// One `post_send_batch` doorbell per round.
    Batch,
}

#[derive(Clone, Copy, Debug)]
enum RxMode {
    /// `QpConfig::poll_mode`: the test drives `progress()` itself.
    Poll,
    /// Dedicated per-QP engine threads (`shards == 0`).
    Threaded,
    /// Shared shard pool of the given size.
    Sharded(usize),
}

/// `ud-lossy`: 10 % Bernoulli loss, nothing else.
fn lossy_fabric() -> Fabric {
    Fabric::new(WireConfig {
        loss: LossModel::bernoulli(0.10),
        seed: SEED,
        ..WireConfig::default()
    })
}

/// `ud-chaos`: 5 % loss plus a drop/duplicate/reorder/corrupt adversary.
fn chaos_fabric() -> Fabric {
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
    fab
}

/// One poll-mode client sends `MSGS` rounds, one datagram to each of
/// `QPS` server QPs per round, from a single thread: every loss and fault
/// decision is drawn in send order against link-owned RNG state, whatever
/// the server's RX `mode` or how the client `sends`. Returns, per QP, the
/// payloads of the successful receive CQEs in CQE order.
fn run_ud(fab: &Fabric, mode: RxMode, sends: Sends) -> Vec<Vec<Vec<u8>>> {
    let shards = match mode {
        RxMode::Sharded(n) => n,
        _ => 0,
    };
    let server = Device::with_config(
        fab,
        NodeId(1),
        DeviceConfig {
            shard: ShardConfig::with_shards(shards),
            ..DeviceConfig::default()
        },
    );
    let qp_cfg = QpConfig {
        poll_mode: matches!(mode, RxMode::Poll),
        ..QpConfig::default()
    };

    // Twice MSGS receive slots: the adversary may duplicate.
    let slots = 2 * MSGS as usize;
    let mut rx = Vec::new();
    for _ in 0..QPS {
        let send_cq = Cq::new(8);
        let recv_cq = Cq::new(slots + 8);
        let qp = server
            .create_ud_qp(None, &send_cq, &recv_cq, qp_cfg.clone())
            .unwrap();
        assert_eq!(qp.is_sharded(), matches!(mode, RxMode::Sharded(_)));
        let mr = server.register(slots * SLOT, Access::Local);
        for i in 0..slots {
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

    let client = Device::new(fab, NodeId(0));
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
        let wrs: Vec<SendWr> = dests
            .iter()
            .enumerate()
            .map(|(qi, dest)| {
                let mut payload = vec![0u8; 96];
                payload[0] = qi as u8;
                payload[1..5].copy_from_slice(&seq.to_le_bytes());
                for (i, b) in payload.iter_mut().enumerate().skip(5) {
                    *b = (i as u8).wrapping_mul(seq as u8 | 1) ^ qi as u8;
                }
                SendWr::new(u64::from(seq), payload, *dest)
            })
            .collect();
        match sends {
            Sends::Singles => {
                for wr in wrs {
                    cqp.post_send(wr.wr_id, wr.payload, wr.dest).unwrap();
                    while c_send.poll().is_some() {}
                }
            }
            // One doorbell per round. Destinations are grouped in
            // first-seen order, which here is exactly the single-send
            // posting order: same wire order, same RNG draws.
            Sends::Batch => {
                cqp.post_send_batch(&wrs).unwrap();
                while c_send.poll().is_some() {}
            }
        }
    }
    fab.chaos_flush();

    // Drain until every QP has been quiet for a while. In poll mode the
    // drain loop itself is the RX engine.
    let mut out: Vec<Vec<Vec<u8>>> = vec![Vec::new(); QPS];
    let mut quiet_since = Instant::now();
    while quiet_since.elapsed() < Duration::from_millis(300) {
        let mut any = false;
        for (qi, (qp, recv_cq, mr)) in rx.iter().enumerate() {
            if matches!(mode, RxMode::Poll) {
                qp.progress(Duration::from_millis(1));
            }
            while let Some(cqe) = recv_cq.poll() {
                any = true;
                if cqe.status != CqeStatus::Success {
                    continue;
                }
                let data = mr
                    .read_vec(cqe.wr_id * SLOT as u64, cqe.byte_len as usize)
                    .unwrap();
                out[qi].push(data);
            }
        }
        if any {
            quiet_since = Instant::now();
        } else {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    out
}

fn hex(m: &[u8]) -> String {
    m.iter().map(|b| format!("{b:02x}")).collect()
}

fn payload_lines(out: &[Vec<Vec<u8>>]) -> Vec<String> {
    out.iter()
        .enumerate()
        .flat_map(|(qi, msgs)| msgs.iter().map(move |m| format!("{qi} {}", hex(m))))
        .collect()
}

/// Wire-level counters: a knob may only change *how* packets move (lock
/// rounds, notifies, CQ pushes), never *what* moves or what the loss RNG
/// sees. `core.qp.tx_bursts` counts flush rounds, not packets, and is
/// left out.
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

fn wire_lines(tel: &Snapshot) -> Vec<String> {
    wire_lines_of(tel, WIRE_COUNTERS)
}

fn wire_lines_of(tel: &Snapshot, counters: &[&str]) -> Vec<String> {
    counters
        .iter()
        .map(|name| format!("{name} {:?}", tel.get(name)))
        .collect()
}

/// Runs `ud-lossy` and checks it against its anchor; returns the final
/// telemetry for the caller's own checks.
fn check_ud_lossy(mode: RxMode, sends: Sends) -> Snapshot {
    let fab = lossy_fabric();
    let out = run_ud(&fab, mode, sends);
    let delivered: usize = out.iter().map(Vec::len).sum();
    assert!(
        delivered > 0,
        "{mode:?}: seeded 10 % loss run delivered nothing"
    );
    assert!(
        delivered < QPS * MSGS as usize,
        "{mode:?}: 10 % loss model dropped nothing; the seed no longer exercises loss"
    );
    let tel = fab.telemetry().snapshot();
    let scenario = "ud-lossy".to_owned();
    check(
        &format!("{mode:?} RX, {sends:?} sends"),
        &[
            (scenario.clone(), "payloads", payload_lines(&out)),
            (scenario, "wire", wire_lines(&tel)),
        ],
    );
    tel
}

/// Caller-polled, per-QP threaded and sharded (1 or 4 shards) RX all
/// deliver the same payloads in the same CQE order, over the same wire.
#[test]
fn rx_mode_does_not_change_delivered_bytes() {
    for mode in [
        RxMode::Poll,
        RxMode::Threaded,
        RxMode::Sharded(1),
        RxMode::Sharded(4),
    ] {
        let tel = check_ud_lossy(mode, Sends::Singles);
        // Every single post_send is a burst of one.
        assert_eq!(
            tel.get("core.qp.tx_bursts"),
            tel.get("core.qp.tx_msgs"),
            "{mode:?}"
        );
    }
}

/// Batched doorbells are byte-identical on the wire to single sends: the
/// same delivered payloads in the same CQE order and the same wire-level
/// telemetry. Each round's doorbell names every destination once, so it
/// flushes one burst per destination: as many bursts as messages.
#[test]
fn batched_doorbells_are_wire_identical_to_single_sends() {
    let tel = check_ud_lossy(RxMode::Poll, Sends::Batch);
    assert_eq!(
        tel.get("core.qp.tx_bursts"),
        Some(QPS as u64 * u64::from(MSGS))
    );
}

/// The per-link seeding contract across the scale-out axis: under the
/// full adversary, 1 shard and 4 shards deliver the same payloads and
/// draw the same faults. Shard interleaving must never reach the wire
/// RNGs.
#[test]
fn shard_count_does_not_change_bytes_or_faults() {
    for shards in [1, 4] {
        let fab = chaos_fabric();
        let out = run_ud(&fab, RxMode::Sharded(shards), Sends::Singles);
        let trace = fab.fault_trace();
        assert!(
            out.iter().any(|q| !q.is_empty()),
            "chaos run delivered nothing"
        );
        assert!(
            !trace.is_empty(),
            "fault plan injected nothing; the adversary is not engaged"
        );
        let scenario = "ud-chaos".to_owned();
        check(
            &format!("{shards} shard(s)"),
            &[
                (scenario.clone(), "payloads", payload_lines(&out)),
                (scenario, "faults", trace_lines(&trace)),
            ],
        );
    }
}

// ---------------------------------------------------------------------------
// bulk-read and replog-failover: shard count × controller.
// ---------------------------------------------------------------------------

/// Runs a loss-free streaming bulk read under one (shard count,
/// congestion controller) combination, asserts it delivered every byte
/// without a repost, and returns the final telemetry snapshot. The
/// responder is sharded (the read responses are generated on shard
/// threads); the requester drives the engine from the test thread in
/// poll mode. RTO timers are pinned far beyond the transfer time, so any
/// wire-counter drift is a real protocol leak, not timer noise.
fn run_bulk_read(shards: usize, algo: CcAlgo) -> Snapshot {
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
                read_ttl: Duration::from_secs(30),
                ..QpConfig::default()
            },
        )
        .unwrap();
    let qb = responder
        .create_ud_qp(None, &Cq::new(64), &Cq::new(64), QpConfig::default())
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
        qa.progress(Duration::from_micros(100));
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
    assert_eq!(
        sink.read_vec(0, TOTAL).unwrap(),
        data,
        "bulk read delivered wrong bytes"
    );
    fab.telemetry().snapshot()
}

/// The read engine's determinism contract: a loss-free bulk read puts the
/// same traffic on the wire under either responder shard count and every
/// congestion controller. Congestion control may
/// change *when* batches are requested, never *what* crosses a clean
/// wire.
#[test]
fn bulk_read_is_wire_identical_across_shards_and_cc() {
    for shards in [1, 4] {
        for algo in CcAlgo::ALL {
            let tel = run_bulk_read(shards, algo);
            check(
                &format!("{shards}-shard/{algo:?}"),
                &[("bulk-read".to_owned(), "wire", wire_lines(&tel))],
            );
        }
    }
}

/// The replicated-log workload's determinism contract: one seeded lossy
/// run (drops, duplicates, reorders, a mid-run leader freeze with
/// fail-over, hole refetches over `BulkRead`) produces the same
/// event/lease history and fault trace under either device shard count
/// and every refetch congestion controller. Shards are inert for
/// poll-mode QPs, and the refetch window fits inside every algo's initial
/// cwnd.
#[test]
fn replog_history_is_identical_across_shards_and_cc() {
    for shards in [1, 4] {
        for algo in CcAlgo::ALL {
            let config = format!("{shards}-shard/{algo:?}");
            let fab = Fabric::new(WireConfig::default());
            fab.install_fault_plan(FaultPlan::from_seed(derive_seed(SEED, 0x9E09)));
            let cfg = ReplogConfig {
                entries: 10,
                freeze: Some((300, 500)),
                shards,
                cc: algo,
                ..ReplogConfig::default()
            };
            let out = Cluster::new(&fab, cfg).run();
            assert!(out.converged, "{config}: replog run failed to converge");
            fab.chaos_flush();
            check(
                &config,
                &replog_streams("replog-failover", &out.history, &fab.fault_trace()),
            );
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

// ---------------------------------------------------------------------------
// rd-lossy: one RD QP pair, polled or threaded.
// ---------------------------------------------------------------------------

/// One client RD QP sends `RD_MSGS` messages to one server RD QP over
/// 10 % loss, both QPs in `mode` (poll or threaded), and returns the
/// payloads the server's receives hold, in receive order. In poll mode a
/// thread per side calls `progress`. Threaded, two server threads wait on
/// the receive CQ, so the QP's waiters and fallback thread contend for
/// its engine, and the client sends and then makes no call, so its
/// fallback thread takes the ACKs and fires the retransmission timers.
fn run_rd(mode: RxMode) -> (Vec<Vec<u8>>, Snapshot) {
    const RD_MSGS: usize = 300;
    let fab = lossy_fabric();
    let poll_mode = matches!(mode, RxMode::Poll);
    let qp_cfg = QpConfig {
        poll_mode,
        ..QpConfig::default()
    };
    let (client, server) = (Device::new(&fab, NodeId(0)), Device::new(&fab, NodeId(1)));
    let (c_send, c_recv) = (Cq::new(RD_MSGS), Cq::new(8));
    let (s_send, s_recv) = (Cq::new(8), Cq::new(RD_MSGS));
    let cqp = client
        .create_rd_qp(None, &c_send, &c_recv, qp_cfg.clone())
        .unwrap();
    let sqp = server.create_rd_qp(None, &s_send, &s_recv, qp_cfg).unwrap();
    let mr = server.register(RD_MSGS * SLOT, Access::Local);
    for i in 0..RD_MSGS {
        sqp.post_recv(RecvWr {
            wr_id: i as u64,
            mr: mr.clone(),
            offset: (i * SLOT) as u64,
            len: SLOT as u32,
        })
        .unwrap();
    }
    let received = AtomicUsize::new(0);
    let deadline = Instant::now() + Duration::from_secs(60);
    // Each server thread's receive CQEs: `(wr_id, byte_len)`.
    let receive = || {
        let mut cqes = Vec::new();
        while received.load(Ordering::Acquire) < RD_MSGS {
            assert!(Instant::now() < deadline, "{mode:?}: RD run stalled");
            if poll_mode {
                sqp.progress(Duration::from_millis(1));
            }
            let cqe = if poll_mode {
                s_recv.poll()
            } else {
                s_recv.poll_timeout(Duration::from_millis(10)).ok()
            };
            if let Some(cqe) = cqe {
                assert_eq!(cqe.status, CqeStatus::Success, "{mode:?}");
                cqes.push((cqe.wr_id, cqe.byte_len as usize));
                received.fetch_add(1, Ordering::AcqRel);
            }
        }
        cqes
    };
    let mut cqes = std::thread::scope(|s| {
        s.spawn(|| {
            for seq in 0..RD_MSGS {
                let payload: Vec<u8> = (0..64).map(|i| (seq * 7 + i) as u8).collect();
                cqp.post_send(seq as u64, payload, sqp.dest()).unwrap();
            }
            // Polled, the client's protocol runs only in its calls.
            while poll_mode && received.load(Ordering::Acquire) < RD_MSGS {
                cqp.progress(Duration::from_millis(1));
            }
        });
        let waiters = if poll_mode { 1 } else { 2 };
        let threads: Vec<_> = (0..waiters).map(|_| s.spawn(receive)).collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect::<Vec<_>>()
    });
    cqes.sort_unstable();
    let out = cqes
        .iter()
        .map(|&(wr_id, len)| mr.read_vec(wr_id * SLOT as u64, len).unwrap())
        .collect();
    (out, fab.telemetry().snapshot())
}

/// The reliable-datagram LLP delivers every message once, in order,
/// however its QPs are driven: polled, or threaded with a CQ waiter and
/// an idle sender's fallback thread.
#[test]
fn rd_delivers_the_same_payloads_polled_and_threaded() {
    let runs = [RxMode::Poll, RxMode::Threaded].map(|mode| {
        let (out, tel) = run_rd(mode);
        assert!(
            tel.get("simnet.rdgram.retransmits") > Some(0),
            "{mode:?}: 10 % loss needed no retransmission; the run no longer exercises recovery"
        );
        out
    });
    assert_eq!(runs[0].len(), runs[1].len());
    for (seq, (polled, threaded)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert_eq!(
            polled, threaded,
            "message {seq}: poll mode and threaded mode delivered different bytes"
        );
    }
}

// ---------------------------------------------------------------------------
// rc-lossless: a poll-mode RC pair across the MPA marker positions.
// ---------------------------------------------------------------------------

/// Message sizes around the 512-byte MPA marker spacing and the one-FPDU
/// segment budget, so FPDUs start, end and split at marker positions.
const RC_SIZES: [usize; 10] = [1, 100, 505, 508, 512, 513, 1024, 1400, 3000, 6000];
const RC_SLOT: usize = 8 * 1024;

/// The connection path's wire: stream segments and the pure ACKs among
/// them, FPDUs (one per DDP segment) and the markers framed into them.
const RC_WIRE_COUNTERS: &[&str] = &[
    "simnet.fabric.tx_packets",
    "simnet.fabric.tx_bytes",
    "simnet.fabric.delivered",
    "simnet.stream.tx_segments",
    "simnet.stream.acks_tx",
    "simnet.stream.retransmits",
    "core.qp.tx_msgs",
    "core.qp.tx_segments",
    "core.mpa.markers_tx",
    "core.rx.segments",
    "core.rx.messages",
];

fn rc_payload(len: usize, verb: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(verb | 1) ^ (i >> 8) as u8 ^ verb)
        .collect()
}

fn cqe_line(side: &str, c: &Cqe) -> String {
    format!(
        "{side} {} {:?} {:?} {} imm={:?} sol={} wr={:?}",
        c.wr_id, c.opcode, c.status, c.byte_len, c.imm, c.solicited, c.write_record
    )
}

/// `rc-lossless`: the client posts a send, an RDMA Write, a Write-Record
/// and a Read of every size in [`RC_SIZES`], and the test thread drives
/// both poll-mode QPs a fixed number of rounds after each size. The wire
/// is clean and the retransmission timers sit far beyond the run, so the
/// only segments are data, handshake and their ACKs. Every posted size
/// stays well inside the 32 KiB socket buffers, so no `write_all` waits
/// on a peer nobody is driving.
fn run_rc_lossless() -> Vec<Stream> {
    let fab = Fabric::new(WireConfig {
        seed: SEED,
        ..WireConfig::default()
    });
    let dev_cfg = DeviceConfig {
        stream: StreamConfig {
            rto_initial: Duration::from_secs(30),
            rto_max: Duration::from_secs(30),
            ..StreamConfig::default()
        },
        ..DeviceConfig::default()
    };
    let server = Device::with_config(&fab, NodeId(1), dev_cfg.clone());
    let client = Device::with_config(&fab, NodeId(0), dev_cfg);
    let qp_cfg = QpConfig {
        poll_mode: true,
        ..QpConfig::default()
    };
    let (s_send, s_recv, c_send, c_recv) = (Cq::new(64), Cq::new(64), Cq::new(64), Cq::new(64));
    let listener = server.rc_listen(700).unwrap();
    let (cqp, sqp): (RcQp, RcQp) = std::thread::scope(|s| {
        let accept = s.spawn(|| {
            listener
                .accept(Duration::from_secs(10), &s_send, &s_recv, qp_cfg.clone())
                .unwrap()
        });
        let cqp = client
            .rc_connect(listener.local_addr(), &c_send, &c_recv, qp_cfg.clone())
            .unwrap();
        (cqp, accept.join().unwrap())
    });

    let span = RC_SIZES.len() * RC_SLOT;
    let recv_mr = server.register(span, Access::Local);
    let write_mr = server.register(span, Access::RemoteWrite);
    let record_mr = server.register(span, Access::RemoteWrite);
    let source: Vec<u8> = (0..span).map(|i| (i % 251) as u8).collect();
    let read_mr = server.register_with(&source, Access::RemoteRead);
    let sink = client.register(span, Access::Local);
    for i in 0..RC_SIZES.len() {
        sqp.post_recv(RecvWr {
            wr_id: i as u64,
            mr: recv_mr.clone(),
            offset: (i * RC_SLOT) as u64,
            len: RC_SLOT as u32,
        })
        .unwrap();
    }
    for (i, &len) in RC_SIZES.iter().enumerate() {
        let (wr, at) = (4 * i as u64, (i * RC_SLOT) as u64);
        cqp.post_send(wr, rc_payload(len, 0)).unwrap();
        cqp.post_rdma_write(wr + 1, rc_payload(len, 1), write_mr.stag(), at)
            .unwrap();
        cqp.post_write_record(wr + 2, rc_payload(len, 2), record_mr.stag(), at)
            .unwrap();
        cqp.post_read(wr + 3, &sink, at, len as u32, read_mr.stag(), at)
            .unwrap();
        for _ in 0..4 {
            cqp.progress(Duration::ZERO);
            sqp.progress(Duration::ZERO);
        }
    }
    let wire = wire_lines_of(&fab.telemetry().snapshot(), RC_WIRE_COUNTERS);

    let mut cqes = Vec::new();
    for (side, cq) in [
        ("c.send", &c_send),
        ("c.recv", &c_recv),
        ("s.send", &s_send),
        ("s.recv", &s_recv),
    ] {
        while let Some(c) = cq.poll() {
            assert_eq!(c.status, CqeStatus::Success, "{side}: {c:?}");
            cqes.push(cqe_line(side, &c));
        }
    }
    // Per size: client send, Write and Write-Record, the Read at the
    // client, and the receive and Write-Record record at the server.
    assert_eq!(
        cqes.len(),
        6 * RC_SIZES.len(),
        "the drive left work undone:\n{cqes:#?}"
    );

    let mut payloads = Vec::new();
    for (i, &len) in RC_SIZES.iter().enumerate() {
        let at = (i * RC_SLOT) as u64;
        for (name, mr, verb) in [
            ("recv", &recv_mr, 0),
            ("write", &write_mr, 1),
            ("record", &record_mr, 2),
        ] {
            let got = mr.read_vec(at, len).unwrap();
            assert_eq!(got, rc_payload(len, verb), "{name} of {len} B");
            payloads.push(format!("{name} {len} {}", hex(&got)));
        }
        let got = sink.read_vec(at, len).unwrap();
        assert_eq!(
            got,
            source[at as usize..at as usize + len],
            "read of {len} B"
        );
        payloads.push(format!("read {len} {}", hex(&got)));
    }
    let scenario = "rc-lossless".to_owned();
    vec![
        (scenario.clone(), "payloads", payloads),
        (scenario.clone(), "cqes", cqes),
        (scenario, "wire", wire),
    ]
}

/// The connection path's determinism contract: a lossless poll-mode RC
/// pair delivers the same bytes and completions over the same segments,
/// ACKs, FPDUs and markers on every run.
#[test]
fn rc_lossless_matches_its_anchor() {
    check("a poll-mode RC pair", &run_rc_lossless());
}
