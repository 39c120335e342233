//! `bulkread` — the one-sided streaming-read sweep (PR 8 acceptance).
//!
//! ```text
//! bulkread [--batches N] [--seed S] [--out PATH] [--smoke]
//! ```
//!
//! Sweeps the [`iwarp::read::BulkRead`] engine over batch sizes
//! 4 KiB – 4 MiB × signaling disciplines {every batch, every 8th,
//! every 32nd, last-only} on a long pipe (80 ms one-way propagation,
//! bandwidth unshaped so host capacity — not a simulated shaper — is
//! the saturation point, as on a real NIC) and records goodput per
//! cell into `BENCH_PR8.json`. Requester and responder run on separate
//! threads, as on real hosts.
//!
//! The propagation delay is what makes the signaling discipline
//! visible: the engine never keeps more *signaled* reads outstanding
//! than its receive CQ has slots (capacity 4 here), so `every1`
//! collapses the effective window to 4 batches — RTT-limited goodput
//! of `4 × batch / 160 ms` — while `lastonly` runs the full 32-batch
//! window. The acceptance block demands throughput rising with batch
//! size (last-only at 4 MiB ≥ last-only at 64 KiB) and `lastonly /
//! every1 ≥ 1.3×` at 1 MiB batches. `--smoke` runs just the two 1 MiB
//! cells and enforces the 1.3× gate (the CI hook).

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::Duration;

use iwarp::read::{BulkRead, BulkReadConfig, CcAlgo, RecoveryConfig, SignalInterval};
use iwarp::{Access, Cq, Device, QpConfig};
use iwarp_common::rng::derive_seed;
use simnet::{Fabric, NodeId, WireConfig};

const RUN_TIMEOUT: Duration = Duration::from_secs(120);
/// Receive-CQ slots on the requester: the admission bound on
/// outstanding signaled reads.
const RECV_CQ_CAP: usize = 4;
/// Flow-control window: batches in flight when signaling permits.
const WINDOW: u64 = 32;

struct Args {
    batches: u64,
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        batches: 64,
        seed: 0xB01_CEAD,
        out: "BENCH_PR8.json".into(),
        smoke: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let grab = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--batches" => {
                args.batches = grab(&argv, i, "--batches")?.parse().map_err(|_| "bad --batches")?;
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
                println!("usage: bulkread [--batches N] [--seed S] [--out PATH] [--smoke]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    args.batches = args.batches.max(2);
    Ok(args)
}

fn signal_label(s: SignalInterval) -> &'static str {
    match s {
        SignalInterval::Every(1) => "every1",
        SignalInterval::Every(8) => "every8",
        SignalInterval::Every(32) => "every32",
        SignalInterval::LastOnly => "lastonly",
        SignalInterval::Every(_) => "every?",
    }
}

struct CellResult {
    elapsed: Duration,
    mbytes_per_sec: f64,
    reposts: u64,
    expired: u64,
    unsignaled_retired: u64,
    cq_overflows: u64,
}

/// One sweep cell: transfer `batches × batch_bytes` from responder to
/// requester over a fresh shaped fabric and report goodput.
fn run_cell(batch_bytes: u32, signal: SignalInterval, batches: u64, wire_seed: u64) -> CellResult {
    let fab = Fabric::new(WireConfig {
        // Unshaped: goodput saturates at host capacity, like a real NIC.
        bandwidth_bps: 0,
        latency: Duration::from_millis(80),
        // A 4 MiB read response is ~2 900 MTU fragments released in one
        // latency cohort; keep the delivery ring above that.
        ring_capacity: 8192,
        seed: wire_seed,
        ..WireConfig::default()
    });
    let a = Device::new(&fab, NodeId(0));
    let b = Device::new(&fab, NodeId(1));
    let cfg = QpConfig {
        max_msg_size: 8 << 20,
        read_ttl: Duration::from_secs(10),
        poll_mode: true,
        ..QpConfig::default()
    };
    let a_recv = Cq::new(RECV_CQ_CAP);
    let qa = a
        .create_ud_qp(None, &Cq::new(1024), &a_recv, cfg.clone())
        .expect("requester qp");
    let qb = b
        .create_ud_qp(None, &Cq::new(1024), &Cq::new(1024), cfg)
        .expect("responder qp");

    let total = batches * u64::from(batch_bytes);
    let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
    let src = b.register_with(&data, Access::RemoteRead);
    let sink = a.register(total as usize, Access::Local);

    let read_cfg = BulkReadConfig {
        batch_bytes,
        window: WINDOW,
        signal,
        recovery: RecoveryConfig {
            algo: CcAlgo::Fixed,
            fixed_window: WINDOW * 2,
            // A batch posted behind a full 128 MiB window waits out the
            // RTT plus the responder's serve time for everything ahead
            // of it; the constant RTO must sit well above that to stay
            // quiet on a lossless run.
            initial_rto: Duration::from_secs(8),
            min_rto: Duration::from_secs(2),
            max_rto: Duration::from_secs(16),
            ..RecoveryConfig::default()
        },
        ..BulkReadConfig::default()
    };
    let mut xfer = BulkRead::new(read_cfg, &sink, 0, total, qb.dest(), src.stag(), 0);

    // Two-host drive: the responder pumps on its own thread, the
    // requester drains and steps the engine here.
    let done = std::sync::atomic::AtomicBool::new(false);
    let start = std::time::Instant::now();
    std::thread::scope(|sc| {
        sc.spawn(|| {
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                qb.progress_burst(4096, Duration::from_micros(50));
            }
        });
        loop {
            qa.progress_burst(4096, Duration::from_micros(20));
            let finished = xfer
                .step(&qa, start.elapsed())
                .unwrap_or_else(|e| panic!("bulkread cell {batch_bytes}B: {e}"));
            if finished {
                break;
            }
            assert!(
                start.elapsed() < RUN_TIMEOUT,
                "bulkread cell {batch_bytes}B/{}: timed out",
                signal_label(signal)
            );
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    let report = xfer.report();
    assert!(!report.dead, "lossless wire must not kill the transfer");
    assert_eq!(report.bytes, total, "short transfer");
    assert_eq!(
        sink.read_vec(0, total as usize).expect("sink readback"),
        data,
        "payload corruption"
    );
    CellResult {
        elapsed,
        mbytes_per_sec: total as f64 / elapsed.as_secs_f64() / 1e6,
        reposts: report.reposts,
        expired: report.expired,
        unsignaled_retired: a_recv.unsignaled_retired(),
        cq_overflows: a_recv.overflows(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bulkread: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(&args);
    }

    let batch_sizes: [u32; 6] = [4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let signals = [
        SignalInterval::Every(1),
        SignalInterval::Every(8),
        SignalInterval::Every(32),
        SignalInterval::LastOnly,
    ];

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "\"bench\": \"bulk_read\",");
    let _ = writeln!(json, "\"seed\": {},", args.seed);
    let _ = writeln!(json, "\"batches_per_cell\": {},", args.batches);
    let _ = writeln!(
        json,
        "\"wire\": {{\"bandwidth_bps\": 0, \"latency_ms\": 80}},"
    );
    let _ = writeln!(
        json,
        "\"window\": {WINDOW}, \"recv_cq_capacity\": {RECV_CQ_CAP},"
    );
    let _ = writeln!(json, "\"runs\": [");

    // Acceptance inputs.
    let mut lastonly_64k = 0.0f64;
    let mut lastonly_4m = 0.0f64;
    let mut every1_1m = 0.0f64;
    let mut lastonly_1m = 0.0f64;
    let mut first = true;
    for (bi, &batch) in batch_sizes.iter().enumerate() {
        for (si, &signal) in signals.iter().enumerate() {
            let wire_seed = derive_seed(args.seed, (bi * 8 + si) as u64);
            let r = run_cell(batch, signal, args.batches, wire_seed);
            eprintln!(
                "  {:>7} B × {:8}: {:8.1} MB/s ({:.0} ms, {} reposts, {} retired)",
                batch,
                signal_label(signal),
                r.mbytes_per_sec,
                r.elapsed.as_secs_f64() * 1e3,
                r.reposts,
                r.unsignaled_retired,
            );
            if !first {
                let _ = writeln!(json, ",");
            }
            first = false;
            let _ = write!(
                json,
                "  {{\"batch_bytes\": {batch}, \"signal\": \"{}\", \"elapsed_ms\": {:.3}, \
                 \"mbytes_per_sec\": {:.2}, \"reposts\": {}, \"expired\": {}, \
                 \"unsignaled_retired\": {}, \"cq_overflows\": {}}}",
                signal_label(signal),
                r.elapsed.as_secs_f64() * 1e3,
                r.mbytes_per_sec,
                r.reposts,
                r.expired,
                r.unsignaled_retired,
                r.cq_overflows,
            );
            match (batch, signal) {
                (65_536, SignalInterval::LastOnly) => lastonly_64k = r.mbytes_per_sec,
                (4_194_304, SignalInterval::LastOnly) => lastonly_4m = r.mbytes_per_sec,
                (1_048_576, SignalInterval::Every(1)) => every1_1m = r.mbytes_per_sec,
                (1_048_576, SignalInterval::LastOnly) => lastonly_1m = r.mbytes_per_sec,
                _ => {}
            }
        }
    }
    let _ = writeln!(json, "\n],");

    let ratio_1mb = lastonly_1m / every1_1m;
    let rising = lastonly_4m >= lastonly_64k;
    let pass = rising && ratio_1mb >= 1.3;
    let _ = writeln!(json, "\"acceptance\": {{");
    let _ = writeln!(
        json,
        "  \"lastonly_64k_mbs\": {lastonly_64k:.2}, \"lastonly_4m_mbs\": {lastonly_4m:.2}, \
         \"rising\": {rising},"
    );
    let _ = writeln!(
        json,
        "  \"every1_1mb_mbs\": {every1_1m:.2}, \"lastonly_1mb_mbs\": {lastonly_1m:.2},"
    );
    let _ = writeln!(
        json,
        "  \"lastonly_vs_every1_1mb\": {ratio_1mb:.3}, \"target_1mb\": 1.3,"
    );
    let _ = writeln!(json, "  \"pass\": {pass}");
    let _ = writeln!(json, "}}");
    let _ = writeln!(json, "}}");

    if let Err(e) = fs::write(&args.out, &json) {
        eprintln!("bulkread: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "bulkread: lastonly/every1 at 1 MiB = {ratio_1mb:.2}x (target 1.3x), \
         rising {lastonly_64k:.0} -> {lastonly_4m:.0} MB/s -> {} ({})",
        if pass { "PASS" } else { "FAIL" },
        args.out
    );
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn smoke(args: &Args) -> ExitCode {
    let batches = args.batches.min(32);
    let every1 = run_cell(1 << 20, SignalInterval::Every(1), batches, derive_seed(args.seed, 100));
    let lastonly = run_cell(1 << 20, SignalInterval::LastOnly, batches, derive_seed(args.seed, 101));
    let ratio = lastonly.mbytes_per_sec / every1.mbytes_per_sec;
    println!(
        "bulkread --smoke: 1 MiB batches — every1 {:.0} MB/s, lastonly {:.0} MB/s \
         ({} retired), ratio {ratio:.2}x (target 1.3x)",
        every1.mbytes_per_sec, lastonly.mbytes_per_sec, lastonly.unsignaled_retired,
    );
    if ratio >= 1.3 {
        println!("bulkread smoke PASSED");
        ExitCode::SUCCESS
    } else {
        eprintln!("bulkread smoke FAILED: selective signaling below 1.3x all-signaled");
        ExitCode::FAILURE
    }
}
