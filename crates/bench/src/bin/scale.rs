//! `scale` — the open-loop memory-scaling ramp (Fig. 11 at 100k
//! concurrent calls).
//!
//! ```text
//! scale [--ramp-calls LIST] [--out PATH]
//! ```
//!
//! SipStone dialogs are established and *held* at each `--ramp-calls`
//! plateau (default 10k/50k/100k, sharded round-robin across
//! [`RAMP_STACKS`] server/client stack pairs to dodge the u16 port
//! ceiling), with a memacct/RSS/slab/pool checkpoint and OPTIONS latency
//! probes taken at every plateau. Results land in `--out` (default
//! `target/scale_ramp.json`; the committed `BENCH_PR10.json` is the
//! recorded 100k run). The one gate is exact on any host: instrumented
//! per-call server bytes within [`PER_CALL_BUDGET_BYTES`]. Closed-loop
//! call throughput and latency are the suite's `sip_1k` workload.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use iwarp::QpConfig;
use iwarp_apps::sip::codec::{make_ack, make_invite, SipMessage, SipMethod};
use iwarp_apps::sip::{SipServer, SipServerConfig, SipTransport};
use iwarp_common::memacct::{procfs_rss_bytes, MemRegistry};
use iwarp_common::stats::Summary;
use iwarp_socket::{DgramProfile, DgramSocket, SocketConfig, SocketStack};
use simnet::{Addr, Fabric, NodeId, WireConfig};

/// 2 KiB-slot socket configuration shared by every stack the harness
/// builds; `poll_mode` QPs are driven by the calling thread.
fn sock_cfg(recv_slots: usize, poll_mode: bool) -> SocketConfig {
    SocketConfig {
        recv_slots,
        slot_size: 2048,
        qp: QpConfig {
            poll_mode,
            ..QpConfig::default()
        },
        ..SocketConfig::default()
    }
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
    sock.send_to(
        &make_ack(&call_id, &from, "uas@server.example", 1).encode(),
        peer,
    )
    .map_err(|e| format!("ramp ACK: {e:?}"))?;
    Ok((
        RampLeg {
            _sock: sock,
            _peer: peer,
        },
        rt,
    ))
}

/// Round-robin OPTIONS probes against the server mains from a dedicated
/// probe socket: p50/p99 request→200 time while `calls` dialogs are held
/// established — the latency-under-memory-load sample.
fn ramp_probe(probe: &DgramSocket, mains: &[Addr], round: usize) -> Result<Summary, String> {
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

fn run_ramp(levels: &[usize]) -> Result<RampOutput, String> {
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
            sock_cfg(8, false),
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
                sock_cfg(4, true),
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
    let answered: u64 = servers
        .iter()
        .map(|s| s.stats().invites.load(std::sync::atomic::Ordering::Relaxed))
        .sum();
    if answered != completed as u64 {
        return Err(format!(
            "ramp bookkeeping: {answered} INVITEs answered vs {completed} legs"
        ));
    }
    // Teardown: drop the held legs wholesale (the ramp measures the
    // established plateau; BYE storms are the suite's `sip_1k`'s job).
    drop(legs);
    drop(probe);
    for server in servers {
        server
            .stop()
            .map_err(|e| format!("ramp server stop: {e:?}"))?;
    }
    Ok(RampOutput {
        checkpoints,
        completed_calls: completed,
    })
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

/// Per-call tracked bytes the ramp gate enforces (PR 10's ≤ 6 KB
/// budget; the 18 KB pre-compaction baseline is the fail side).
const PER_CALL_BUDGET_BYTES: f64 = 6144.0;

fn parse_args() -> Result<(Vec<usize>, String), String> {
    let mut levels = vec![10_000, 50_000, 100_000];
    let mut out = String::from("target/scale_ramp.json");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--ramp-calls" => {
                levels = value?
                    .split(',')
                    .map(|p| p.trim().parse().map_err(|_| format!("bad list item {p:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => out = value?,
            other => {
                return Err(format!(
                    "unknown arg {other:?}\nusage: scale [--ramp-calls LIST] [--out PATH]"
                ))
            }
        }
    }
    Ok((levels, out))
}

fn main() -> ExitCode {
    let (levels, out) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ramp = match run_ramp(&levels) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ramp failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Gate at the first plateau of 10k calls or more; smoke-scale ramps
    // gate on their largest level instead.
    let gate_cp = ramp
        .checkpoints
        .iter()
        .find(|c| c.calls >= 10_000)
        .or(ramp.checkpoints.last());
    let per_call_at_gate = gate_cp.map_or(0.0, |c| c.per_call_bytes);
    let mem_ok = gate_cp.is_some_and(|c| c.per_call_bytes <= PER_CALL_BUDGET_BYTES);
    let mem_status = if mem_ok { "pass" } else { "fail" };

    let json = format!(
        "{{\n \"pr\": 10,\n \"title\": \"Slab/arena state compaction: memory-per-call at \
         100k concurrent calls\",\n \"harness\": \"scale\",\n \"host_cpus\": {},\n \
         \"ramp_stacks\": {},\n \"ring_slots\": {},\n \"checkpoints\": [{}\n ],\n \
         \"acceptance\": {{\n  \
         \"per_call_budget_bytes\": {},\n  \"per_call_bytes_at_gate\": {:.1},\n  \
         \"per_call_gate\": \"{}\",\n  \"completed_ramp_calls\": {}\n }},\n \
         \"notes\": \"Open-loop ramp: SipStone dialogs are established and *held* across {} \
         server/client stack pairs (round-robin, {} link-ring slots, compact per-call receive \
         profiles), with every memory axis read at each plateau: instrumented tracked bytes \
         (per-category memacct), procfs RSS (null = honest skip where procfs is unavailable), \
         pool retained vs in-flight bytes, and slab live/slots occupancy. Latency at each \
         plateau is sampled with {} OPTIONS probes against the main sockets while all calls \
         stay live.\"\n}}\n",
        host_cpus,
        RAMP_STACKS,
        RAMP_RING_SLOTS,
        json_checkpoints(&ramp.checkpoints),
        PER_CALL_BUDGET_BYTES as u64,
        per_call_at_gate,
        mem_status,
        ramp.completed_calls,
        RAMP_STACKS,
        RAMP_RING_SLOTS,
        RAMP_PROBES,
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "\nramp: {} calls completed; per-call {per_call_at_gate:.0} B (budget {} B) -> {}",
        ramp.completed_calls,
        PER_CALL_BUDGET_BYTES as u64,
        mem_status.to_uppercase(),
    );
    println!("wrote {out}");
    if mem_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
