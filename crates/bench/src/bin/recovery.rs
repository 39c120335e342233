//! `recovery` — the loss-recovery / congestion-control sweep (PR 6
//! acceptance).
//!
//! ```text
//! recovery [--msgs N] [--bytes N] [--seed S] [--out PATH] [--smoke]
//! ```
//!
//! Runs the two reliable transports — `RdConduit` (message-sequenced
//! reliable datagrams, the paper's RD service) and `StreamConduit` (the
//! RC-mode byte stream) — across a grid of wire-loss models × congestion
//! controllers and records goodput plus the `cc.*` recovery counters.
//! Loss points are Bernoulli rates `{0, 0.1%, 0.5%, 1%, 5%, 10%}` and
//! two Gilbert–Elliott burst models (2% avg × 8-packet bursts, 5% avg ×
//! 16-packet bursts); controllers are `fixed` (the legacy constant-RTO,
//! static-window behavior), `newreno` and `cubic` (RFC-6298 adaptive RTO
//! + SACK fast retransmit + adaptive window).
//!
//! Results land in `BENCH_PR6.json` with an acceptance block: the best
//! adaptive controller must deliver **≥2×** the fixed-path rdgram
//! goodput at 1% Bernoulli loss and strictly beat it under both GE
//! burst models. `--smoke` runs just the 1% rdgram cell for
//! fixed/newreno and enforces the 2× gate (the CI hook).

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use bytes::Bytes;
use iwarp_common::rng::derive_seed;
use simnet::rdgram::RdConfig;
use simnet::stream::StreamConfig;
use simnet::{
    Addr, CcAlgo, Fabric, LossModel, NodeId, RdConduit, StreamConduit, StreamListener,
    WireConfig,
};

const RUN_TIMEOUT: Duration = Duration::from_secs(120);

struct Args {
    msgs: usize,
    bytes: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        msgs: 2048,
        bytes: 256 * 1024,
        seed: 0x6C05_5001,
        out: "BENCH_PR6.json".into(),
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let grab = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--msgs" => {
                args.msgs = grab(&argv, i, "--msgs")?.parse().map_err(|_| "bad --msgs")?;
                i += 1;
            }
            "--bytes" => {
                args.bytes = grab(&argv, i, "--bytes")?.parse().map_err(|_| "bad --bytes")?;
                i += 1;
            }
            "--seed" => {
                args.seed = grab(&argv, i, "--seed")?.parse().map_err(|_| "bad --seed")?;
                i += 1;
            }
            "--out" => {
                args.out = grab(&argv, i, "--out")?;
                i += 1;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!("usage: recovery [--msgs N] [--bytes N] [--seed S] [--out PATH] [--smoke]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

/// One point of the loss grid.
struct LossPoint {
    /// `"bernoulli"` or `"ge"`.
    kind: &'static str,
    /// Long-run average drop rate (for the report).
    rate: f64,
    model: LossModel,
}

fn loss_grid() -> Vec<LossPoint> {
    let mut grid: Vec<LossPoint> = [0.0, 0.001, 0.005, 0.01, 0.05, 0.10]
        .iter()
        .map(|&rate| LossPoint {
            kind: "bernoulli",
            rate,
            model: LossModel::bernoulli(rate),
        })
        .collect();
    grid.push(LossPoint {
        kind: "ge",
        rate: 0.02,
        model: LossModel::bursty(0.02, 8.0),
    });
    grid.push(LossPoint {
        kind: "ge",
        rate: 0.05,
        model: LossModel::bursty(0.05, 16.0),
    });
    grid
}

#[derive(Clone, Copy)]
struct RunResult {
    elapsed: Duration,
    /// Messages (rdgram) or bytes (stream) delivered per second.
    rate: f64,
    retransmits: u64,
    rto_fired: u64,
    fast_retransmits: u64,
}

fn cc_counters(fab: &Fabric) -> (u64, u64, u64) {
    let snap = fab.telemetry().snapshot();
    (
        snap.get("cc.retransmits").unwrap_or(0),
        snap.get("cc.rto_fired").unwrap_or(0),
        snap.get("cc.fast_retransmits").unwrap_or(0),
    )
}

/// One-way reliable-datagram flood: `msgs` × 1 KiB messages, elapsed
/// from first send until every message is delivered and acknowledged.
fn run_rdgram(point: &LossPoint, algo: CcAlgo, msgs: usize, wire_seed: u64) -> RunResult {
    let fab = Fabric::new(WireConfig {
        loss: point.model,
        seed: wire_seed,
        ..WireConfig::default()
    });
    let cfg = RdConfig {
        window: 64,
        rto: Duration::from_millis(20),
        max_rto: Duration::from_millis(100),
        cc: algo,
        ..RdConfig::default()
    };
    let tx = RdConduit::bind(&fab, Addr::new(2, 900), cfg.clone()).expect("bind rd tx");
    let rx = RdConduit::bind(&fab, Addr::new(3, 900), cfg).expect("bind rd rx");
    let payload = Bytes::from(vec![0x5Au8; 1024]);
    let start = Instant::now();
    std::thread::scope(|sc| {
        let rxh = sc.spawn(|| {
            for i in 0..msgs {
                rx.recv_from(Some(RUN_TIMEOUT))
                    .unwrap_or_else(|e| panic!("rd recv {i}: {e}"));
            }
        });
        for i in 0..msgs {
            tx.send_to(rx.local_addr(), payload.clone())
                .unwrap_or_else(|e| panic!("rd send {i}: {e}"));
        }
        tx.flush(RUN_TIMEOUT).expect("rd flush");
        rxh.join().expect("rd receiver");
    });
    let elapsed = start.elapsed();
    let (retransmits, rto_fired, fast_retransmits) = cc_counters(&fab);
    RunResult {
        elapsed,
        rate: msgs as f64 / elapsed.as_secs_f64(),
        retransmits,
        rto_fired,
        fast_retransmits,
    }
}

/// One-way stream transfer: `bytes` client→server, elapsed from first
/// write until the server has read every byte.
fn run_stream(point: &LossPoint, algo: CcAlgo, bytes: usize, wire_seed: u64) -> RunResult {
    let fab = Fabric::new(WireConfig {
        loss: point.model,
        seed: wire_seed,
        ..WireConfig::default()
    });
    let cfg = StreamConfig {
        rto_initial: Duration::from_millis(20),
        rto_max: Duration::from_millis(200),
        cc: algo,
        ..StreamConfig::default()
    };
    let listener = StreamListener::bind(&fab, Addr::new(1, 901), cfg.clone()).expect("bind stream");
    let data = vec![0xC3u8; bytes];
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|sc| {
        let srv = sc.spawn(|| {
            let server = listener.accept(Some(RUN_TIMEOUT)).expect("accept");
            let mut got = vec![0u8; bytes];
            server
                .read_exact(&mut got, Some(RUN_TIMEOUT))
                .expect("server read");
        });
        let client =
            StreamConduit::connect(&fab, NodeId(0), Addr::new(1, 901), cfg.clone()).expect("connect");
        let start = Instant::now();
        client.write_all(&data).expect("client write");
        srv.join().expect("stream server");
        elapsed = start.elapsed();
        client.close();
    });
    let (retransmits, rto_fired, fast_retransmits) = cc_counters(&fab);
    RunResult {
        elapsed,
        rate: bytes as f64 / elapsed.as_secs_f64(),
        retransmits,
        rto_fired,
        fast_retransmits,
    }
}

fn smoke(args: &Args) -> ExitCode {
    let point = LossPoint {
        kind: "bernoulli",
        rate: 0.01,
        model: LossModel::bernoulli(0.01),
    };
    let msgs = args.msgs.min(1024);
    let fixed = run_rdgram(&point, CcAlgo::Fixed, msgs, derive_seed(args.seed, 1));
    let newreno = run_rdgram(&point, CcAlgo::NewReno, msgs, derive_seed(args.seed, 1));
    let ratio = newreno.rate / fixed.rate;
    println!(
        "recovery --smoke: rdgram @1% bernoulli — fixed {:.0} msg/s ({} rtx), \
         newreno {:.0} msg/s ({} rtx), ratio {ratio:.2}x (target 2.0x)",
        fixed.rate, fixed.retransmits, newreno.rate, newreno.retransmits,
    );
    if ratio >= 2.0 {
        println!("recovery smoke PASSED");
        ExitCode::SUCCESS
    } else {
        eprintln!("recovery smoke FAILED: adaptive recovery below 2x fixed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("recovery: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(&args);
    }

    let algos = [CcAlgo::Fixed, CcAlgo::NewReno, CcAlgo::Cubic];
    let grid = loss_grid();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "\"bench\": \"loss_recovery\",");
    let _ = writeln!(json, "\"seed\": {},", args.seed);
    let _ = writeln!(json, "\"rd_msgs\": {}, \"rd_msg_bytes\": 1024,", args.msgs);
    let _ = writeln!(json, "\"stream_bytes\": {},", args.bytes);
    let _ = writeln!(json, "\"runs\": [");

    // Acceptance inputs, filled in as the grid runs.
    let mut rd_1pct = [0.0f64; 3]; // per algo, msgs/s at 1% Bernoulli
    let mut rd_ge_worst_ratio = f64::INFINITY; // min over GE points of best-adaptive/fixed
    let mut first = true;
    for (pi, point) in grid.iter().enumerate() {
        let mut ge_fixed = 0.0f64;
        let mut ge_best = 0.0f64;
        for (ai, &algo) in algos.iter().enumerate() {
            let wire_seed = derive_seed(args.seed, (pi * 8 + ai) as u64);
            let rd = run_rdgram(point, algo, args.msgs, wire_seed);
            let st = run_stream(point, algo, args.bytes, wire_seed);
            eprintln!(
                "  {:9} {:5.1}% {:8}: rdgram {:8.0} msg/s ({} rtx, {} rto, {} fast) | \
                 stream {:6.2} MB/s ({} rtx)",
                point.kind,
                point.rate * 100.0,
                algo.to_string(),
                rd.rate,
                rd.retransmits,
                rd.rto_fired,
                rd.fast_retransmits,
                st.rate / 1e6,
                st.retransmits,
            );
            for (workload, r, unit) in
                [("rdgram", &rd, "msgs_per_sec"), ("stream", &st, "bytes_per_sec")]
            {
                if !first {
                    let _ = writeln!(json, ",");
                }
                first = false;
                let _ = write!(
                    json,
                    "  {{\"workload\": \"{workload}\", \"loss\": \"{}\", \"rate\": {}, \
                     \"algo\": \"{algo}\", \"elapsed_ms\": {:.3}, \"{unit}\": {:.1}, \
                     \"retransmits\": {}, \"rto_fired\": {}, \"fast_retransmits\": {}}}",
                    point.kind,
                    point.rate,
                    r.elapsed.as_secs_f64() * 1e3,
                    r.rate,
                    r.retransmits,
                    r.rto_fired,
                    r.fast_retransmits,
                );
            }
            if point.kind == "bernoulli" && (point.rate - 0.01).abs() < 1e-9 {
                rd_1pct[ai] = rd.rate;
            }
            if point.kind == "ge" {
                if algo == CcAlgo::Fixed {
                    ge_fixed = rd.rate;
                } else {
                    ge_best = ge_best.max(rd.rate);
                }
            }
        }
        if point.kind == "ge" && ge_fixed > 0.0 {
            rd_ge_worst_ratio = rd_ge_worst_ratio.min(ge_best / ge_fixed);
        }
    }
    let _ = writeln!(json, "\n],");

    let best_adaptive = rd_1pct[1].max(rd_1pct[2]);
    let ratio_1pct = best_adaptive / rd_1pct[0];
    let pass = ratio_1pct >= 2.0 && rd_ge_worst_ratio > 1.0;
    let _ = writeln!(json, "\"acceptance\": {{");
    let _ = writeln!(
        json,
        "  \"rdgram_1pct_msgs_per_sec\": {{\"fixed\": {:.1}, \"newreno\": {:.1}, \"cubic\": {:.1}}},",
        rd_1pct[0], rd_1pct[1], rd_1pct[2]
    );
    let _ = writeln!(
        json,
        "  \"best_adaptive_vs_fixed_1pct\": {ratio_1pct:.3}, \"target_1pct\": 2.0,"
    );
    let _ = writeln!(
        json,
        "  \"ge_worst_best_adaptive_vs_fixed\": {rd_ge_worst_ratio:.3}, \"target_ge\": 1.0,"
    );
    let _ = writeln!(json, "  \"pass\": {pass}");
    let _ = writeln!(json, "}}");
    let _ = writeln!(json, "}}");

    if let Err(e) = fs::write(&args.out, &json) {
        eprintln!("recovery: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "recovery: 1% bernoulli best-adaptive/fixed = {ratio_1pct:.2}x (target 2x), \
         GE worst ratio = {rd_ge_worst_ratio:.2}x (target >1x) -> {} ({})",
        if pass { "PASS" } else { "FAIL" },
        args.out
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
