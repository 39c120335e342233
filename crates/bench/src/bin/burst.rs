//! `burst` — the small-message burst-datapath rate sweep (PR 5
//! acceptance).
//!
//! ```text
//! burst [--sizes LIST] [--bursts LIST] [--msgs N] [--out PATH] [--smoke]
//! ```
//!
//! Open-loop unidirectional rate test over the fast (unpaced) fabric:
//! a sender thread pushes `--msgs` small messages through
//! `post_send_batch` doorbells of each burst size while a poll-mode
//! receiver drains them with `progress_burst` + `Cq::poll_into` — the
//! sender and receiver contend on the fabric and channel locks exactly
//! like a real pipeline. Every (size × burst) cell runs under **both**
//! [`BurstPath`] settings; wire bytes are identical, only the locking
//! cadence differs.
//!
//! Per run it records delivered msgs/s (total and per core used),
//! sender doorbell µs/msg (p50/p99 across batches), the per-link ring
//! telemetry (`simnet.fabric.ring_enqueues`, `ring_full_retries`, mean
//! `ring_occupancy`), and `core.qp.tx_bursts`. The PR 7 fabric takes no
//! shared lock on the hot transmit path; its retired
//! `simnet.fabric.lock_acquisitions` counter must be absent from the
//! telemetry snapshot entirely. The acceptance block compares burst-32
//! × 64 B against the per-packet baseline (targets: ≥2× msgs/s, the
//! shared-lock counter retired on both paths).

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp::wr::RecvWr;
use iwarp::{Access, BurstPath, Cq, Cqe, Device, QpConfig, SendWr};
use iwarp_common::stats::Summary;
use simnet::{Fabric, NodeId, WireConfig};

const POLL: Duration = Duration::from_secs(10);
/// Quiet window after which the receiver declares the run drained.
const QUIET: Duration = Duration::from_millis(500);

struct Args {
    sizes: Vec<usize>,
    bursts: Vec<usize>,
    msgs: usize,
    out: String,
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|_| format!("bad list item {p:?}")))
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sizes: vec![1, 64, 512],
        bursts: vec![1, 8, 32, 128],
        msgs: 8192,
        out: "BENCH_PR5.json".into(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let grab = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--sizes" => {
                args.sizes = parse_list(&grab(&argv, i, "--sizes")?)?;
                i += 1;
            }
            "--bursts" => {
                args.bursts = parse_list(&grab(&argv, i, "--bursts")?)?;
                i += 1;
            }
            "--msgs" => {
                args.msgs = grab(&argv, i, "--msgs")?
                    .parse()
                    .map_err(|_| "bad --msgs".to_string())?;
                i += 1;
            }
            "--out" => {
                args.out = grab(&argv, i, "--out")?;
                i += 1;
            }
            "--smoke" => {
                // CI-bounded: the acceptance cell plus the baseline burst,
                // fewer messages.
                args.sizes = vec![64];
                args.bursts = vec![1, 32];
                args.msgs = 2048;
            }
            other => {
                return Err(format!(
                    "unknown arg {other:?}\nusage: burst [--sizes LIST] [--bursts LIST] \
                     [--msgs N] [--out PATH] [--smoke]"
                ))
            }
        }
        i += 1;
    }
    Ok(args)
}

struct RunResult {
    path: BurstPath,
    size: usize,
    burst: usize,
    sent: usize,
    delivered: usize,
    msgs_per_sec: f64,
    /// msgs/s divided by the cores this run can actually use (sender +
    /// receiver thread, capped at `host_cpus`).
    msgs_per_sec_per_core: f64,
    /// Sender doorbell time per message (batch post / burst), µs.
    doorbell_p50_us: f64,
    doorbell_p99_us: f64,
    /// True when the retired shared-lock counter is absent from the
    /// fabric's telemetry snapshot (nothing on the hot path emits it).
    lock_counter_retired: bool,
    ring_enqueues: u64,
    ring_full_retries: u64,
    /// Mean ring+spill occupancy observed at enqueue.
    ring_occupancy_mean: f64,
    tx_bursts: u64,
}

/// Cores the two-thread (sender + receiver) pipeline can use.
fn cores_used() -> usize {
    iwarp_common::affinity::host_cpus().min(2)
}

/// One open-loop run: `msgs` messages of `size` bytes in doorbells of
/// `burst`, under the given path. Fresh fabric per run so telemetry
/// deltas are exact.
fn run_one(path: BurstPath, size: usize, burst: usize, msgs: usize) -> RunResult {
    let fabric = Fabric::new(WireConfig::default());
    let dev_a = Device::new(&fabric, NodeId(0));
    let dev_b = Device::new(&fabric, NodeId(1));
    let cfg = QpConfig {
        poll_mode: true,
        recv_ttl: Duration::from_secs(5),
        burst_path: path,
        ..QpConfig::default()
    };
    let (a_s, a_r) = (Cq::new(msgs + 64), Cq::new(msgs + 64));
    let (b_s, b_r) = (Cq::new(msgs + 64), Cq::new(msgs + 64));
    let qa = dev_a.create_ud_qp(None, &a_s, &a_r, cfg.clone()).expect("qp");
    let qb = dev_b.create_ud_qp(None, &b_s, &b_r, cfg).expect("qp");
    let b_dest = qb.dest();
    let sink = dev_b.register(size.max(1), Access::Local);
    let data = Bytes::from((0..size).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (start_tx, start_rx) = mpsc::channel::<Instant>();

    let before = fabric.telemetry().snapshot();
    let (delivered, elapsed, doorbell) = std::thread::scope(|s| {
        let qb_ref = &qb;
        let sink_ref = &sink;
        let counter = s.spawn(move || {
            // Pre-post every receive in doorbell-sized batches.
            let recvs: Vec<RecvWr> = (0..msgs)
                .map(|i| RecvWr::whole(i as u64, sink_ref))
                .collect();
            for chunk in recvs.chunks(burst.max(1)) {
                qb_ref.post_recv_batch(chunk).expect("prepost");
            }
            ready_tx.send(()).expect("ready");
            let mut scratch = vec![Cqe::default(); burst.clamp(1, 256)];
            let mut got = 0usize;
            let mut last = None;
            let mut idle_since: Option<Instant> = None;
            while got < msgs {
                qb_ref.progress_burst(burst.max(1), Duration::from_micros(200));
                let n = qb_ref.recv_cq().poll_into(&mut scratch);
                if n > 0 {
                    got += n;
                    last = Some(Instant::now());
                    idle_since = None;
                } else {
                    // Quiet-window exit so a lost run cannot hang the bench.
                    let now = Instant::now();
                    match idle_since {
                        None => idle_since = Some(now),
                        Some(t) if now - t > QUIET => break,
                        Some(_) => {}
                    }
                }
            }
            let start = start_rx.recv_timeout(POLL).expect("start timestamp");
            let elapsed = match last {
                Some(l) if l > start => l - start,
                _ => Duration::from_micros(1),
            };
            (got, elapsed)
        });
        ready_rx.recv_timeout(POLL).expect("receiver ready");
        start_tx.send(Instant::now()).expect("start");
        let mut doorbell = Summary::new();
        let mut scratch = vec![Cqe::default(); burst.clamp(1, 256)];
        let mut posted = 0usize;
        let mut wr_id = 0u64;
        while posted < msgs {
            let n = burst.min(msgs - posted);
            let wrs: Vec<SendWr> = (0..n)
                .map(|_| {
                    wr_id += 1;
                    SendWr::new(wr_id, data.clone(), b_dest)
                })
                .collect();
            let t0 = Instant::now();
            qa.post_send_batch(&wrs).expect("post");
            while qa.send_cq().poll_into(&mut scratch) == scratch.len() {}
            doorbell.push(t0.elapsed().as_secs_f64() * 1e6 / n as f64);
            posted += n;
        }
        let (delivered, elapsed) = counter.join().expect("counter");
        (delivered, elapsed, doorbell)
    });
    let after = fabric.telemetry().snapshot();
    let lock_counter_retired = after.get("simnet.fabric.lock_acquisitions").is_none();
    let delta = after.delta(&before);
    let ring_enqueues = delta.get("simnet.fabric.ring_enqueues").unwrap_or(0);
    let ring_full_retries = delta.get("simnet.fabric.ring_full_retries").unwrap_or(0);
    let occ_count = delta.get("simnet.fabric.ring_occupancy.count").unwrap_or(0);
    let occ_sum = delta.get("simnet.fabric.ring_occupancy.sum").unwrap_or(0);
    let tx_bursts = delta.get("core.qp.tx_bursts").unwrap_or(0);
    let msgs_per_sec = delivered as f64 / elapsed.as_secs_f64().max(1e-9);
    RunResult {
        path,
        size,
        burst,
        sent: msgs,
        delivered,
        msgs_per_sec,
        msgs_per_sec_per_core: msgs_per_sec / cores_used() as f64,
        doorbell_p50_us: doorbell.percentile(50.0),
        doorbell_p99_us: doorbell.percentile(99.0),
        lock_counter_retired,
        ring_enqueues,
        ring_full_retries,
        ring_occupancy_mean: occ_sum as f64 / occ_count.max(1) as f64,
        tx_bursts,
    }
}

fn json_runs(results: &[RunResult]) -> String {
    let mut s = String::new();
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let _ = write!(
            s,
            "\n  {{\"path\": \"{}\", \"size\": {}, \"burst\": {}, \"sent\": {}, \
             \"delivered\": {}, \"msgs_per_sec\": {:.1}, \"msgs_per_sec_per_core\": {:.1}, \
             \"doorbell_p50_us\": {:.3}, \"doorbell_p99_us\": {:.3}, \
             \"lock_counter_retired\": {}, \"ring_enqueues\": {}, \"ring_full_retries\": {}, \
             \"ring_occupancy_mean\": {:.2}, \"tx_bursts\": {}}}{}",
            r.path,
            r.size,
            r.burst,
            r.sent,
            r.delivered,
            r.msgs_per_sec,
            r.msgs_per_sec_per_core,
            r.doorbell_p50_us,
            r.doorbell_p99_us,
            r.lock_counter_retired,
            r.ring_enqueues,
            r.ring_full_retries,
            r.ring_occupancy_mean,
            r.tx_bursts,
            sep
        );
    }
    s
}

/// The acceptance cell: 64 B × burst 32. Returns (msgs/s, retired
/// shared-lock counter absent) for the given path.
fn acceptance_cell(results: &[RunResult], path: BurstPath) -> Option<(f64, bool)> {
    results
        .iter()
        .filter(|r| r.path == path)
        .filter(|r| r.size == 64 && r.burst == 32)
        .map(|r| (r.msgs_per_sec, r.lock_counter_retired))
        .next()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    println!(
        "{:<10} {:>5} {:>6} {:>12} {:>14} {:>14} {:>12}",
        "path", "size", "burst", "msgs/s", "doorbell p50", "doorbell p99", "ring spills"
    );
    for &size in &args.sizes {
        for &burst in &args.bursts {
            for path in [BurstPath::PerPacket, BurstPath::Burst] {
                let r = run_one(path, size, burst, args.msgs);
                println!(
                    "{:<10} {:>5} {:>6} {:>12.0} {:>11.3} us {:>11.3} us {:>12}",
                    r.path, r.size, r.burst, r.msgs_per_sec, r.doorbell_p50_us,
                    r.doorbell_p99_us, r.ring_full_retries
                );
                results.push(r);
            }
        }
    }
    let mut gate_ok = true;
    let acceptance = match (
        acceptance_cell(&results, BurstPath::PerPacket),
        acceptance_cell(&results, BurstPath::Burst),
    ) {
        (Some((pp_rate, pp_retired)), Some((b_rate, b_retired))) => {
            let speedup = b_rate / pp_rate.max(1e-9);
            // PR 7: the hot transmit path takes zero shared fabric locks
            // under either batching discipline — since PR 9 the counter
            // that used to prove it is retired outright, so the gate
            // checks it never reappears in a snapshot.
            let retired = pp_retired && b_retired;
            let pass = speedup >= 2.0 && retired;
            gate_ok = pass;
            println!(
                "\nacceptance 64B x burst32: {speedup:.2}x msgs/s, shared-lock counter \
                 retired per-packet={pp_retired} burst={b_retired} -> {}",
                if pass { "PASS" } else { "FAIL" }
            );
            format!(
                "{{\"size\": 64, \"burst\": 32, \"speedup\": {speedup:.3}, \
                 \"lock_counter_retired\": {retired}, \"pass\": {pass}}}"
            )
        }
        _ => {
            println!("\nacceptance cell (64B x burst32) not in sweep; no verdict");
            "null".to_string()
        }
    };

    let json = format!(
        "{{\n\"bench\": \"burst_datapath\",\n\"host_cpus\": {},\n\"cores_used\": {},\n\
         \"msgs_per_run\": {},\n\"runs\": [{}\n],\n\"acceptance\": {}\n}}\n",
        iwarp_common::affinity::host_cpus(),
        cores_used(),
        args.msgs,
        json_runs(&results),
        acceptance
    );
    if let Err(e) = fs::write(&args.out, &json) {
        eprintln!("write {}: {e}", args.out);
        return ExitCode::from(1);
    }
    println!("wrote {}", args.out);
    if !gate_ok {
        eprintln!("acceptance gate failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
