//! `scale` — the many-QP concurrency-scaling harness (PR 4 acceptance).
//!
//! ```text
//! scale [--calls LIST] [--shards LIST] [--idle-ms N] [--out PATH] [--smoke] [--full] [--pin]
//!       [--ramp] [--ramp-calls LIST]
//! ```
//!
//! Runs SipStone-style closed-loop call batches (INVITE → 200 → ACK …
//! BYE → 200, one server socket per call, all over one shared socket
//! shim) across a matrix of datapath configurations:
//!
//! * `legacy`  — pre-scale-out baseline: poll-mode QPs, the server's
//!   O(active calls) scan loop (exactly the Fig. 10/11 setup);
//! * `event`   — shard-driven RX engines and the server parked in
//!   `wait_ready` (the full PR 4 datapath), at 1/2/4 shards.
//!
//! Per configuration it records INVITE→200 p50/p99, aggregate messages/s,
//! and per-call instrumented server memory; while every call is held
//! established it also measures the server's **idle** CPU (process
//! utime+stime ticks over a quiet window) — the number that separates a
//! parked `wait_any` from a spinning scan. Results land in
//! `BENCH_PR4.json`.
//!
//! Caveat recorded in the output: shard *throughput* scaling needs shard
//! workers on separate cores. On a single-CPU host the shards serialize
//! onto one core and msgs/s is flat (or slightly down) with shard count;
//! `host_cpus` and per-run `msgs_per_sec_per_core` are written alongside
//! so readers can judge the numbers, and `--pin` pins shard workers to
//! cores (`sched_setaffinity`, advisory) to take the scheduler out of
//! the measurement. Under `--smoke` on a host with `host_cpus ≥ 2` the
//! bin additionally runs the PR 7 multi-core gate — 1-shard vs 4-shard
//! event mode, pinned, asserting a msgs/s ratio ≥ 1.5 — and records an
//! honest skip (with `host_cpus`) when the host cannot express
//! multi-core scaling at all. Smoke also enforces the PR 10 memory gate:
//! instrumented per-call bytes ≤ 6 KB at 1024 event-mode calls.
//!
//! `--ramp` switches to the PR 10 open-loop memory-scaling run: SipStone
//! dialogs are established and *held* at each `--ramp-calls` plateau
//! (default 10k/50k/100k, sharded round-robin across [`RAMP_STACKS`]
//! server/client stack pairs to dodge the u16 port ceiling), with a
//! memacct/RSS/slab/pool checkpoint and OPTIONS latency probes taken at
//! every plateau, then one closed-loop 1k event run to show the
//! compaction kept PR 4's throughput. Results land in `BENCH_PR10.json`.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use iwarp::{BurstPath, QpConfig};
use iwarp_apps::sip::codec::{make_ack, make_invite, SipMessage, SipMethod};
use iwarp_apps::sip::load::run_sip_load_with_peak_sample;
use iwarp_apps::sip::{SipLoadConfig, SipServer, SipServerConfig, SipTransport};
use iwarp_common::memacct::{procfs_rss_bytes, MemRegistry};
use iwarp_common::stats::Summary;
use iwarp_socket::{DgramProfile, DgramSocket, SocketConfig, SocketStack};
use simnet::{Addr, Fabric, NodeId, WireConfig};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Poll-mode QPs + scan-loop server: the pre-shard baseline.
    Legacy,
    /// Sharded RX engines, `wait_ready`-parked server.
    Event { shards: usize },
}

impl Mode {
    fn label(self) -> String {
        match self {
            Mode::Legacy => "legacy".into(),
            Mode::Event { shards } => format!("event-{shards}shard"),
        }
    }

    fn shards(self) -> usize {
        match self {
            Mode::Legacy => 0,
            Mode::Event { shards } => shards,
        }
    }

    /// How the server learns of work: scan loop or parked `wait_ready`
    /// (follows from poll-mode vs threaded QPs).
    fn notify(self) -> &'static str {
        match self {
            Mode::Legacy => "poll",
            Mode::Event { .. } => "event",
        }
    }
}

/// 2 KiB-slot socket configuration shared by every stack the harness
/// builds; `poll_mode` QPs are driven by the calling thread.
fn sock_cfg(recv_slots: usize, poll_mode: bool, burst_path: BurstPath) -> SocketConfig {
    SocketConfig {
        recv_slots,
        slot_size: 2048,
        qp: QpConfig {
            poll_mode,
            burst_path,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    }
}

struct RunResult {
    mode: String,
    calls: usize,
    shards: usize,
    notify: &'static str,
    established: usize,
    msgs_per_sec: f64,
    /// msgs/s divided by the cores this configuration can actually use
    /// (shard workers + the client driver thread, capped at host_cpus).
    msgs_per_sec_per_core: f64,
    cores_used: usize,
    pinned: bool,
    p50_us: f64,
    p99_us: f64,
    server_mem_bytes: u64,
    per_call_bytes: f64,
    idle_cpu_ticks: u64,
    idle_window_ms: u64,
    elapsed_s: f64,
}

/// Process CPU time in clock ticks: utime+stime from `/proc/self/stat`
/// (fields 14/15; parsed after the last `)` so comm can't confuse it).
fn cpu_ticks() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    let Some(rest) = stat.rsplit(')').next() else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
    let stime: u64 = f.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
    utime + stime
}

/// Each SIP transaction is five messages on the wire:
/// INVITE, 200(INVITE), ACK, BYE, 200(BYE).
const MSGS_PER_CALL: f64 = 5.0;

fn run_one(
    mode: Mode,
    calls: usize,
    idle_window: Duration,
    pin: bool,
    burst_path: BurstPath,
) -> Result<RunResult, String> {
    // Unpaced wire: the harness measures stack processing capacity, not
    // modeled link rate.
    let fab = Fabric::new(WireConfig::default());
    let reg = MemRegistry::new();
    let server_stack = SocketStack::with_config(
        &fab,
        NodeId(1),
        iwarp::DeviceConfig {
            mem: Some(reg.clone()),
            shard: iwarp::ShardConfig {
                pin_cores: pin,
                ..iwarp::ShardConfig::with_shards(mode.shards())
            },
            ..iwarp::DeviceConfig::default()
        },
        sock_cfg(8, mode == Mode::Legacy, burst_path),
    );
    // The client is not under test: poll-mode sockets, driven from this
    // thread, identical across configurations.
    let client_stack = SocketStack::with_config(
        &fab,
        NodeId(0),
        iwarp::DeviceConfig::default(),
        sock_cfg(8, true, burst_path),
    );

    let server = SipServer::spawn(
        server_stack,
        SipServerConfig {
            transport: SipTransport::Ud,
            port: 5060,
            call_state_bytes: 1024,
        },
    )
    .map_err(|e| format!("server spawn: {e:?}"))?;

    let load = SipLoadConfig {
        calls,
        transport: SipTransport::Ud,
        server_addr: Addr::new(1, 5060),
        timeout: Duration::from_secs(30),
        call_state_bytes: 1024,
    };
    let mut idle_ticks = 0u64;
    let t0 = Instant::now();
    let report = run_sip_load_with_peak_sample(&client_stack, &load, || {
        // All calls are established and the wire is quiet: whatever CPU
        // the process burns now is pure idle cost (scan loop vs parked
        // waiters). This thread sleeps through the window.
        let before = cpu_ticks();
        std::thread::sleep(idle_window);
        idle_ticks = cpu_ticks().saturating_sub(before);
        (reg.total_current(), Vec::new())
    })
    .map_err(|e| format!("load: {e:?}"))?;
    let elapsed = t0.elapsed().saturating_sub(idle_window);
    server.stop().map_err(|e| format!("server stop: {e:?}"))?;

    let msgs = MSGS_PER_CALL * report.calls_established as f64;
    let msgs_per_sec = msgs / elapsed.as_secs_f64().max(1e-9);
    // Shard workers plus the client driver thread, capped at what the
    // host actually has.
    let cores_used = iwarp_common::affinity::host_cpus().min(mode.shards().max(1) + 1);
    Ok(RunResult {
        mode: mode.label(),
        calls,
        shards: mode.shards(),
        notify: mode.notify(),
        established: report.calls_established,
        msgs_per_sec,
        msgs_per_sec_per_core: msgs_per_sec / cores_used as f64,
        cores_used,
        pinned: pin,
        p50_us: report.response_us.median(),
        p99_us: report.response_us.percentile(99.0),
        server_mem_bytes: report.server_mem_bytes,
        per_call_bytes: report.server_mem_bytes as f64 / calls.max(1) as f64,
        idle_cpu_ticks: idle_ticks,
        idle_window_ms: idle_window.as_millis() as u64,
        elapsed_s: t0.elapsed().as_secs_f64(),
    })
}

// ---------------------------------------------------------------------------
// PR 10: open-loop memory-scaling ramp (Fig. 11 at 100k concurrent calls).
// ---------------------------------------------------------------------------

/// Stacks per side for the ramp. Calls are sharded round-robin across
/// `RAMP_STACKS` server nodes (each running its own evented SIP server)
/// and as many client nodes, so no single node exhausts the u16 port
/// space at 100k concurrent calls (~25k ports per node at 4 stacks).
const RAMP_STACKS: usize = 4;

/// OPTIONS probes per checkpoint (round-robin across the server mains) —
/// the sampled-active-subset latency measurement.
const RAMP_PROBES: usize = 64;

/// Link-ring slots for the ramp fabric. Every bound socket owns a
/// delivery ring; at ~200k sockets the default 256-slot rings would be
/// pure resident overhead for sockets that see five messages total, so
/// the ramp shrinks them and lets the (mutex-guarded, lossless) spill
/// path absorb any burst beyond 16.
const RAMP_RING_SLOTS: usize = 16;

struct RampCheckpoint {
    calls: usize,
    server_tracked_bytes: u64,
    client_tracked_bytes: u64,
    per_call_bytes: f64,
    /// `None` = procfs unavailable; recorded as an honest skip, never 0.
    rss_bytes: Option<u64>,
    rss_delta_bytes: Option<u64>,
    tracked_fraction_of_rss_delta: Option<f64>,
    pool_retained_bytes: u64,
    pool_in_flight_bytes: u64,
    slab_live: u64,
    slab_slots: u64,
    setup_p50_us: f64,
    setup_p99_us: f64,
    probe_p50_us: f64,
    probe_p99_us: f64,
    elapsed_s: f64,
}

/// One held call: the client leg socket (kept open — dropping it is the
/// teardown) and the server's per-call dialog address (adopted from the
/// 200 OK source).
struct RampLeg {
    _sock: DgramSocket,
    _peer: Addr,
}

fn ramp_recv(sock: &DgramSocket, timeout: Duration) -> Result<(SipMessage, Addr), String> {
    let mut buf = [0u8; 2048];
    let (n, src) = sock
        .recv_from(&mut buf, timeout)
        .map_err(|e| format!("ramp recv: {e:?}"))?;
    let msg = SipMessage::parse(&buf[..n]).map_err(|e| format!("ramp parse: {e}"))?;
    Ok((msg, src))
}

/// Establishes one call on `client_stack` against `server_main`,
/// returning the held leg and the INVITE→200 time.
fn ramp_establish(
    client_stack: &SocketStack,
    server_main: Addr,
    seq: usize,
) -> Result<(RampLeg, Duration), String> {
    let call_id = format!("ramp-{seq}@loadgen");
    let from = format!("sipp-{seq}@client.example");
    let invite = make_invite(&call_id, &from, "uas@server.example", 1).encode();
    let sock = client_stack
        .dgram_with(DgramProfile::compact())
        .map_err(|e| format!("ramp socket: {e:?}"))?;
    let t0 = Instant::now();
    sock.send_to(&invite, server_main)
        .map_err(|e| format!("ramp INVITE: {e:?}"))?;
    let (reply, peer) = ramp_recv(&sock, Duration::from_secs(30))?;
    let rt = t0.elapsed();
    if reply.status() != Some(200) {
        return Err(format!("call {seq}: INVITE answered {:?}", reply.status()));
    }
    sock.send_to(&make_ack(&call_id, &from, "uas@server.example", 1).encode(), peer)
        .map_err(|e| format!("ramp ACK: {e:?}"))?;
    Ok((RampLeg { _sock: sock, _peer: peer }, rt))
}

/// Round-robin OPTIONS probes against the server mains from a dedicated
/// probe socket: p50/p99 request→200 time while `calls` dialogs are held
/// established — the latency-under-memory-load sample.
fn ramp_probe(
    probe: &DgramSocket,
    mains: &[Addr],
    round: usize,
) -> Result<Summary, String> {
    let mut rtts = Summary::new();
    for i in 0..RAMP_PROBES {
        let options = SipMessage::request(SipMethod::Options, "sip:uas@server.example")
            .with_header("Via", "SIP/2.0/UDP probe.invalid;branch=z9hG4bKprobe")
            .with_header("From", "<sip:probe@client.example>;tag=probe")
            .with_header("To", "<sip:uas@server.example>")
            .with_header("Call-ID", &format!("probe-{round}-{i}@loadgen"))
            .with_header("CSeq", "1 OPTIONS")
            .encode();
        let t0 = Instant::now();
        probe
            .send_to(&options, mains[i % mains.len()])
            .map_err(|e| format!("probe send: {e:?}"))?;
        let (reply, _) = ramp_recv(probe, Duration::from_secs(10))?;
        if reply.status() != Some(200) {
            return Err(format!("probe answered {:?}", reply.status()));
        }
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(rtts)
}

struct RampOutput {
    checkpoints: Vec<RampCheckpoint>,
    completed_calls: usize,
}

fn run_ramp(levels: &[usize], burst_path: BurstPath) -> Result<RampOutput, String> {
    let fab = Fabric::new(WireConfig {
        ring_capacity: RAMP_RING_SLOTS,
        ..WireConfig::default()
    });
    let server_reg = MemRegistry::new();
    let client_reg = MemRegistry::new();

    // Server side: RAMP_STACKS evented stacks, one SIP server each, all
    // reporting into one registry (Fig. 11 counts whole-server state).
    let mut servers = Vec::with_capacity(RAMP_STACKS);
    let mut mains = Vec::with_capacity(RAMP_STACKS);
    for s in 0..RAMP_STACKS {
        let node = NodeId(1 + s as u16);
        let stack = SocketStack::with_config(
            &fab,
            node,
            iwarp::DeviceConfig {
                mem: Some(server_reg.clone()),
                shard: iwarp::ShardConfig::with_shards(1),
                ..iwarp::DeviceConfig::default()
            },
            sock_cfg(8, false, burst_path),
        );
        let server = SipServer::spawn(
            stack,
            SipServerConfig {
                transport: SipTransport::Ud,
                port: 5060,
                call_state_bytes: 1024,
            },
        )
        .map_err(|e| format!("ramp server {s}: {e:?}"))?;
        servers.push(server);
        mains.push(Addr::new(node.0, 5060));
    }

    // Client side: poll-mode stacks driven from this thread.
    let client_stacks: Vec<SocketStack> = (0..RAMP_STACKS)
        .map(|s| {
            SocketStack::with_config(
                &fab,
                NodeId(101 + s as u16),
                iwarp::DeviceConfig {
                    mem: Some(client_reg.clone()),
                    ..iwarp::DeviceConfig::default()
                },
                sock_cfg(4, true, burst_path),
            )
        })
        .collect();
    let probe = client_stacks[0]
        .dgram_with(DgramProfile::compact())
        .map_err(|e| format!("probe socket: {e:?}"))?;

    let rss_baseline = procfs_rss_bytes();
    if rss_baseline.is_none() {
        println!("ramp: procfs RSS unavailable — recording honest skip (rss_bytes = null)");
    }

    let t_start = Instant::now();
    let mut legs: Vec<RampLeg> = Vec::with_capacity(*levels.last().unwrap_or(&0));
    let mut checkpoints = Vec::with_capacity(levels.len());
    for (li, &level) in levels.iter().enumerate() {
        let mut setup = Summary::new();
        while legs.len() < level {
            let seq = legs.len();
            let s = seq % RAMP_STACKS;
            let (leg, rt) = ramp_establish(&client_stacks[s], mains[s], seq)?;
            setup.push(rt.as_secs_f64() * 1e6);
            legs.push(leg);
        }
        // All `level` calls held established: sample latency on the live
        // system, then read every memory axis at peak concurrency.
        let probes = ramp_probe(&probe, &mains, li)?;
        let server_tracked = server_reg.total_current();
        let client_tracked = client_reg.total_current();
        let rss = procfs_rss_bytes();
        let rss_delta = match (rss, rss_baseline) {
            (Some(now), Some(base)) => Some(now.saturating_sub(base)),
            _ => None,
        };
        let snap = fab.telemetry().snapshot();
        let cp = RampCheckpoint {
            calls: level,
            server_tracked_bytes: server_tracked,
            client_tracked_bytes: client_tracked,
            per_call_bytes: server_tracked as f64 / level.max(1) as f64,
            rss_bytes: rss,
            rss_delta_bytes: rss_delta,
            tracked_fraction_of_rss_delta: rss_delta
                .filter(|&d| d > 0)
                .map(|d| (server_tracked + client_tracked) as f64 / d as f64),
            pool_retained_bytes: snap.get("pool.retained_bytes").unwrap_or(0),
            pool_in_flight_bytes: snap.get("pool.in_flight_bytes").unwrap_or(0),
            slab_live: snap.get("mem.slab.live").unwrap_or(0),
            slab_slots: snap.get("mem.slab.slots").unwrap_or(0),
            setup_p50_us: setup.median(),
            setup_p99_us: setup.percentile(99.0),
            probe_p50_us: probes.median(),
            probe_p99_us: probes.percentile(99.0),
            elapsed_s: t_start.elapsed().as_secs_f64(),
        };
        println!(
            "ramp {:>7} calls: {:>7.0} B/call, slab {}/{} live/slots, \
             setup p50 {:.0} us, probe p50/p99 {:.0}/{:.0} us, rss {}",
            cp.calls,
            cp.per_call_bytes,
            cp.slab_live,
            cp.slab_slots,
            cp.setup_p50_us,
            cp.probe_p50_us,
            cp.probe_p99_us,
            cp.rss_bytes
                .map_or("n/a".into(), |b| format!("{} MiB", b >> 20)),
        );
        checkpoints.push(cp);
    }

    let completed = legs.len();
    let answered: u64 = servers.iter().map(|s| s.stats().invites.load(std::sync::atomic::Ordering::Relaxed)).sum();
    if answered != completed as u64 {
        return Err(format!(
            "ramp bookkeeping: {answered} INVITEs answered vs {completed} legs"
        ));
    }
    // Teardown: drop the held legs wholesale (the ramp measures the
    // established plateau; BYE storms are the closed-loop runs' job).
    drop(legs);
    drop(probe);
    for server in servers {
        server.stop().map_err(|e| format!("ramp server stop: {e:?}"))?;
    }
    Ok(RampOutput {
        checkpoints,
        completed_calls: completed,
    })
}

/// The PR 4 reference throughput: event-2shard msgs/s at 1024 calls out
/// of `BENCH_PR4.json` (each run is one line in that file). `None` when
/// the file is missing or the run isn't recorded — the comparison is
/// then skipped, not faked.
fn pr4_event_1k_msgs_per_sec() -> Option<f64> {
    let s = fs::read_to_string("BENCH_PR4.json").ok()?;
    for line in s.lines() {
        if line.contains("\"mode\": \"event-2shard\"") && line.contains("\"calls\": 1024") {
            let tail = &line[line.find("\"msgs_per_sec\": ")? + 16..];
            return tail[..tail.find(',')?].trim().parse().ok();
        }
    }
    None
}

fn json_checkpoints(cps: &[RampCheckpoint]) -> String {
    let mut s = String::new();
    let opt = |v: Option<u64>| v.map_or("null".into(), |b| b.to_string());
    for (i, c) in cps.iter().enumerate() {
        let sep = if i + 1 == cps.len() { "" } else { "," };
        let _ = write!(
            s,
            "\n  {{\"calls\": {}, \"server_tracked_bytes\": {}, \"client_tracked_bytes\": {}, \
             \"per_call_bytes\": {:.1}, \"rss_bytes\": {}, \"rss_delta_bytes\": {}, \
             \"tracked_fraction_of_rss_delta\": {}, \"pool_retained_bytes\": {}, \
             \"pool_in_flight_bytes\": {}, \"slab_live\": {}, \"slab_slots\": {}, \
             \"setup_p50_us\": {:.1}, \"setup_p99_us\": {:.1}, \"probe_p50_us\": {:.1}, \
             \"probe_p99_us\": {:.1}, \"elapsed_s\": {:.2}}}{}",
            c.calls,
            c.server_tracked_bytes,
            c.client_tracked_bytes,
            c.per_call_bytes,
            opt(c.rss_bytes),
            opt(c.rss_delta_bytes),
            c.tracked_fraction_of_rss_delta
                .map_or("null".into(), |f| format!("{f:.3}")),
            c.pool_retained_bytes,
            c.pool_in_flight_bytes,
            c.slab_live,
            c.slab_slots,
            c.setup_p50_us,
            c.setup_p99_us,
            c.probe_p50_us,
            c.probe_p99_us,
            c.elapsed_s,
            sep
        );
    }
    s
}

/// Per-call tracked bytes the smoke/ramp gates enforce (the ISSUE's
/// ≤ 6 KB budget; the 18 KB pre-compaction baseline is the fail side).
const PER_CALL_BUDGET_BYTES: f64 = 6144.0;

fn ramp_main(levels: &[usize], out: &str, burst_path: BurstPath) -> ExitCode {
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ramp = match run_ramp(levels, burst_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ramp failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Throughput spot-check: the compaction must not cost the event
    // datapath its PR 4 closed-loop msgs/s at 1k calls. Best-of-3 — the
    // single-number comparison against a recorded baseline should not
    // hinge on one scheduler hiccup.
    let mut closed: Option<RunResult> = None;
    for _ in 0..3 {
        match run_one(
            Mode::Event { shards: 2 },
            1024,
            Duration::from_millis(250),
            false,
            burst_path,
        ) {
            Ok(r) => {
                if closed.as_ref().is_none_or(|b| r.msgs_per_sec > b.msgs_per_sec) {
                    closed = Some(r);
                }
            }
            Err(e) => {
                eprintln!("ramp closed-loop spot-check failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let closed = closed.expect("three runs attempted");
    let pr4 = pr4_event_1k_msgs_per_sec();
    let (tp_ratio, tp_status) = match pr4 {
        Some(base) if base > 0.0 => {
            let ratio = closed.msgs_per_sec / base;
            (ratio, if ratio >= 0.9 { "pass" } else { "fail" })
        }
        _ => (0.0, "skipped"),
    };

    let gate_cp = ramp.checkpoints.iter().find(|c| c.calls >= 10_000);
    let (per_call_at_gate, mem_status) = match gate_cp {
        Some(c) => (
            c.per_call_bytes,
            if c.per_call_bytes <= PER_CALL_BUDGET_BYTES {
                "pass"
            } else {
                "fail"
            },
        ),
        // Smoke-scale ramps gate on their largest level instead.
        None => match ramp.checkpoints.last() {
            Some(c) => (
                c.per_call_bytes,
                if c.per_call_bytes <= PER_CALL_BUDGET_BYTES {
                    "pass"
                } else {
                    "fail"
                },
            ),
            None => (0.0, "fail"),
        },
    };

    let json = format!(
        "{{\n \"pr\": 10,\n \"title\": \"Slab/arena state compaction: memory-per-call at \
         100k concurrent calls\",\n \"harness\": \"scale --ramp\",\n \"host_cpus\": {},\n \
         \"ramp_stacks\": {},\n \"ring_slots\": {},\n \"checkpoints\": [{}\n ],\n \
         \"closed_loop_1k\": {{\"mode\": \"{}\", \"msgs_per_sec\": {:.1}, \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}, \"per_call_bytes\": {:.1}}},\n \"acceptance\": {{\n  \
         \"per_call_budget_bytes\": {},\n  \"per_call_bytes_at_gate\": {:.1},\n  \
         \"per_call_gate\": \"{}\",\n  \"completed_ramp_calls\": {},\n  \
         \"event_msgs_per_sec_1k\": {:.1},\n  \"pr4_event_msgs_per_sec_1k\": {},\n  \
         \"throughput_ratio_vs_pr4\": {:.2},\n  \"throughput_gate\": \"{}\"\n }},\n \
         \"notes\": \"Open-loop ramp: SipStone dialogs are established and *held* across {} \
         server/client stack pairs (round-robin, {} link-ring slots, compact per-call receive \
         profiles), with every memory axis read at each plateau: instrumented tracked bytes \
         (per-category memacct), procfs RSS (null = honest skip where procfs is unavailable), \
         pool retained vs in-flight bytes, and slab live/slots occupancy. Latency at each \
         plateau is sampled with {} OPTIONS probes against the main sockets while all calls \
         stay live. The closed-loop 1k run reuses the PR 4 harness to show the compaction \
         kept its throughput.\"\n}}\n",
        host_cpus,
        RAMP_STACKS,
        RAMP_RING_SLOTS,
        json_checkpoints(&ramp.checkpoints),
        closed.mode,
        closed.msgs_per_sec,
        closed.p50_us,
        closed.p99_us,
        closed.per_call_bytes,
        PER_CALL_BUDGET_BYTES as u64,
        per_call_at_gate,
        mem_status,
        ramp.completed_calls,
        closed.msgs_per_sec,
        pr4.map_or("null".into(), |v| format!("{v:.1}")),
        tp_ratio,
        tp_status,
        RAMP_STACKS,
        RAMP_RING_SLOTS,
        RAMP_PROBES,
    );
    if let Err(e) = fs::write(out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "\nramp: {} calls completed; per-call {per_call_at_gate:.0} B (budget {} B) -> {}; \
         closed-loop 1k event {:.0} msgs/s vs PR4 {} -> {}",
        ramp.completed_calls,
        PER_CALL_BUDGET_BYTES as u64,
        mem_status.to_uppercase(),
        closed.msgs_per_sec,
        pr4.map_or("n/a".into(), |v| format!("{v:.0}")),
        tp_status.to_uppercase(),
    );
    println!("wrote {out}");
    if mem_status == "fail" || tp_status == "fail" {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|_| format!("bad list item {p:?}")))
        .collect()
}

struct Args {
    calls: Vec<usize>,
    shards: Vec<usize>,
    idle_ms: u64,
    out: String,
    out_set: bool,
    smoke: bool,
    pin: bool,
    ramp: bool,
    ramp_calls: Vec<usize>,
    burst_path: BurstPath,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        calls: vec![64, 256, 1024],
        shards: vec![1, 2, 4],
        idle_ms: 1000,
        out: "BENCH_PR4.json".into(),
        out_set: false,
        smoke: false,
        pin: false,
        ramp: false,
        ramp_calls: vec![10_000, 50_000, 100_000],
        burst_path: BurstPath::default(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let grab = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--calls" => {
                args.calls = parse_list(&grab(&argv, i, "--calls")?)?;
                i += 1;
            }
            "--shards" => {
                args.shards = parse_list(&grab(&argv, i, "--shards")?)?;
                i += 1;
            }
            "--idle-ms" => {
                args.idle_ms = grab(&argv, i, "--idle-ms")?
                    .parse()
                    .map_err(|_| "bad --idle-ms".to_string())?;
                i += 1;
            }
            "--out" => {
                args.out = grab(&argv, i, "--out")?;
                args.out_set = true;
                i += 1;
            }
            "--smoke" => {
                // CI-bounded: event-mode runs at 256 and 1024 calls over
                // 2 shards, short idle window. The 1024-call run carries
                // the PR 10 per-call-bytes gate.
                args.smoke = true;
                args.calls = vec![256, 1024];
                args.shards = vec![2];
                args.idle_ms = 250;
            }
            "--full" => args.calls = vec![64, 256, 1024, 4096],
            "--pin" => args.pin = true,
            "--ramp" => args.ramp = true,
            "--ramp-calls" => {
                args.ramp_calls = parse_list(&grab(&argv, i, "--ramp-calls")?)?;
                i += 1;
            }
            "--burst-path" => {
                let spec = grab(&argv, i, "--burst-path")?;
                args.burst_path = BurstPath::parse(&spec)
                    .ok_or(format!("--burst-path takes 'per-packet' or 'burst', got {spec:?}"))?;
                i += 1;
            }
            other => {
                return Err(format!(
                    "unknown arg {other:?}\nusage: scale [--calls LIST] [--shards LIST] \
                     [--idle-ms N] [--out PATH] [--smoke] [--full] [--pin] \
                     [--ramp] [--ramp-calls LIST] [--burst-path {{per-packet,burst}}]"
                ))
            }
        }
        i += 1;
    }
    Ok(args)
}

fn json_runs(results: &[RunResult]) -> String {
    let mut s = String::new();
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = write!(
            s,
            "\n  {{\"mode\": \"{}\", \"calls\": {}, \"shards\": {}, \"notify\": \"{}\", \
             \"pinned\": {}, \"cores_used\": {}, \"established\": {}, \
             \"msgs_per_sec\": {:.1}, \"msgs_per_sec_per_core\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"server_mem_bytes\": {}, \"per_call_bytes\": {:.1}, \
             \"idle_cpu_ticks\": {}, \"idle_window_ms\": {}, \"elapsed_s\": {:.2}}}{}",
            r.mode,
            r.calls,
            r.shards,
            r.notify,
            r.pinned,
            r.cores_used,
            r.established,
            r.msgs_per_sec,
            r.msgs_per_sec_per_core,
            r.p50_us,
            r.p99_us,
            r.server_mem_bytes,
            r.per_call_bytes,
            r.idle_cpu_ticks,
            r.idle_window_ms,
            r.elapsed_s,
            sep
        );
    }
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.ramp {
        let out = if args.out_set {
            args.out.clone()
        } else {
            "BENCH_PR10.json".into()
        };
        return ramp_main(&args.ramp_calls, &out, args.burst_path);
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let idle_window = Duration::from_millis(args.idle_ms);

    let mut results: Vec<RunResult> = Vec::new();
    println!(
        "{:<16} {:>6} {:>12} {:>9} {:>9} {:>11} {:>10}",
        "mode", "calls", "msgs/s", "p50 us", "p99 us", "mem/call B", "idle ticks"
    );
    for &calls in &args.calls {
        let mut modes: Vec<Mode> = vec![Mode::Legacy];
        modes.extend(args.shards.iter().map(|&s| Mode::Event { shards: s.max(1) }));
        for mode in modes {
            match run_one(mode, calls, idle_window, args.pin, args.burst_path) {
                Ok(r) => {
                    println!(
                        "{:<16} {:>6} {:>12.0} {:>9.1} {:>9.1} {:>11.0} {:>10}",
                        r.mode, r.calls, r.msgs_per_sec, r.p50_us, r.p99_us,
                        r.per_call_bytes, r.idle_cpu_ticks
                    );
                    results.push(r);
                }
                Err(e) => {
                    eprintln!("FAIL {} @{calls}: {e}", mode.label());
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    // PR 7 multi-core gate: on a host that can actually express
    // multi-core shard scaling, 4 pinned event shards must beat 1 pinned
    // shard by >= 1.5x msgs/s. On a single-CPU host the shards serialize
    // onto one core, so the gate records an honest skip (with host_cpus)
    // instead of asserting a ratio the hardware cannot produce.
    let mut gate_status = "not_enforced";
    let mut gate_ratio = 0.0f64;
    if args.smoke {
        if host_cpus >= 2 {
            let gate_calls = 256;
            let [one, four] = [1, 4].map(|shards| {
                run_one(Mode::Event { shards }, gate_calls, idle_window, true, args.burst_path)
            });
            match (one, four) {
                (Ok(a), Ok(b)) if a.msgs_per_sec > 0.0 => {
                    gate_ratio = b.msgs_per_sec / a.msgs_per_sec;
                    gate_status = if gate_ratio >= 1.5 { "pass" } else { "fail" };
                    println!(
                        "multi-core gate: 1->4 shard (pinned) msgs/s ratio {gate_ratio:.2} \
                         at {gate_calls} calls (host_cpus={host_cpus}) -> {}",
                        gate_status.to_uppercase()
                    );
                    results.push(a);
                    results.push(b);
                }
                (a, b) => {
                    gate_status = "fail";
                    for r in [a, b].into_iter().flatten() {
                        results.push(r);
                    }
                    eprintln!("multi-core gate: run failed");
                }
            }
        } else {
            gate_status = "skipped";
            println!(
                "multi-core gate: SKIPPED — host_cpus={host_cpus} < 2; a single core \
                 cannot express multi-core shard scaling (recorded in acceptance JSON)"
            );
        }
    }

    // Acceptance summary at the largest call count measured.
    let top = *args.calls.iter().max().unwrap_or(&0);
    let at = |m: &str| {
        results
            .iter()
            .find(|r| r.calls == top && r.mode == m)
    };
    let shard_ratio = match (at("event-1shard"), at("event-4shard")) {
        (Some(a), Some(b)) if a.msgs_per_sec > 0.0 => b.msgs_per_sec / a.msgs_per_sec,
        _ => 0.0,
    };
    let poll_idle = results
        .iter()
        .filter(|r| r.notify == "poll")
        .map(|r| r.idle_cpu_ticks)
        .max()
        .unwrap_or(0);
    let event_idle = results
        .iter()
        .filter(|r| r.notify == "event")
        .map(|r| r.idle_cpu_ticks)
        .max()
        .unwrap_or(0);
    let idle_ratio = poll_idle as f64 / (event_idle.max(1)) as f64;

    let json = format!(
        "{{\n \"pr\": 4,\n \"title\": \"Many-QP scale-out: sharded datapath and event-driven \
         completions\",\n \"harness\": \"scale{}\",\n \"host_cpus\": {},\n \"runs\": [{}\n ],\n \
         \"acceptance\": {{\n  \"shard_msgs_per_sec_ratio_1_to_4_at_{}_calls\": {:.2},\n  \
         \"idle_cpu_ticks_poll_max\": {},\n  \"idle_cpu_ticks_event_max\": {},\n  \
         \"idle_cpu_poll_over_event\": {:.1},\n  \
         \"multicore_gate\": {{\"status\": \"{}\", \"ratio\": {:.2}, \"host_cpus\": {}}}\n }},\n \
         \"notes\": \"Closed-loop SipStone \
         transactions (5 messages/call) over the shared socket shim; one server socket per \
         call. Idle CPU = process utime+stime ticks while all calls are held established and \
         the wire is quiet. Shard throughput scaling requires shard workers on separate \
         cores: on a host with host_cpus=1 every shard serializes onto the same core, so \
         msgs/s stays flat with shard count there and the architectural win shows up in the \
         idle-CPU column (parked wait_any vs scan loop) and on multi-core hosts.\"\n}}\n",
        if args.smoke { " --smoke" } else { "" },
        host_cpus,
        json_runs(&results),
        top,
        shard_ratio,
        poll_idle,
        event_idle,
        idle_ratio,
        gate_status,
        gate_ratio,
        host_cpus,
    );
    if let Err(e) = fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "\nidle CPU: poll={poll_idle} ticks, event={event_idle} ticks ({idle_ratio:.1}x); \
         1->4 shard msgs/s ratio @{top} calls: {shard_ratio:.2} (host_cpus={host_cpus})"
    );
    println!("wrote {}", args.out);

    // Smoke gate for CI: every call established, and the event-mode server
    // must be (near-)silent while idle.
    if args.smoke {
        let ok = results.iter().all(|r| r.established == r.calls);
        if !ok {
            eprintln!("smoke: not every call established");
            return ExitCode::FAILURE;
        }
        if gate_status == "fail" {
            eprintln!("smoke: multi-core gate failed (ratio {gate_ratio:.2} < 1.5)");
            return ExitCode::FAILURE;
        }
        // PR 10 memory gate: tracked per-call bytes at 1024 concurrent
        // event-mode calls must stay within the compaction budget. This
        // reads the instrumented memacct registry (always available);
        // procfs RSS reconciliation is the ramp's job.
        match results
            .iter()
            .find(|r| r.calls == 1024 && r.notify == "event")
        {
            Some(r) if r.per_call_bytes <= PER_CALL_BUDGET_BYTES => {
                println!(
                    "smoke: per-call gate PASS ({:.0} B <= {} B at {} calls)",
                    r.per_call_bytes, PER_CALL_BUDGET_BYTES as u64, r.calls
                );
            }
            Some(r) => {
                eprintln!(
                    "smoke: per-call gate FAIL ({:.0} B > {} B at {} calls)",
                    r.per_call_bytes, PER_CALL_BUDGET_BYTES as u64, r.calls
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("smoke: per-call gate missing its 1024-call event run");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
