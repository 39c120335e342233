//! `replog` — replicated-log commit sweep + agreement smoke gate (PR 9).
//!
//! ```text
//! replog [--entries N] [--seed S] [--out PATH]        # full sweep
//! replog --smoke [--plans N]                          # CI gate
//! replog --replay SEED                                # re-run one chaos plan
//! ```
//!
//! The full sweep drives the [`iwarp_apps::replog`] cluster over both
//! publish paths (one-sided Write-Record vs a two-sided send/recv
//! baseline) × wire loss {0 %, 2 %, 8 %} and records commit latency and
//! throughput per cell into `--out` (default `target/replog.json`; the
//! committed `BENCH_PR9.json` is the recorded sweep). Latency and
//! throughput are measured on the cluster's synthetic tick clock —
//! Proposed tick → Committed tick per client entry — so the headline
//! numbers are deterministic per seed; wall-clock figures ride along for
//! reference.
//!
//! `--smoke` is the CI hook: a bounded seeded chaos sweep through the
//! `iwarp_chaos::replog` oracle (every agreement invariant checked
//! under partitions, reorder, duplication, corruption, burst loss).
//! `--replay SEED` re-runs exactly one oracle plan (same faults
//! byte-for-byte) and prints the full failure rendering on any
//! violation.

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use iwarp_apps::replog::{Cluster, Event, PublishPath, ReplogConfig};
use iwarp_chaos::replog::{run_replog_plan, run_replog_sweep, ReplogOpts};
use iwarp_common::rng::derive_seed;
use simnet::{Fabric, LossModel, WireConfig};

struct Args {
    entries: usize,
    seed: u64,
    out: String,
    smoke: bool,
    plans: usize,
    replay: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        entries: 64,
        seed: 0x9E10_0009,
        out: "target/replog.json".into(),
        smoke: false,
        plans: 25,
        replay: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let grab = |argv: &[String], i: usize, flag: &str| -> Result<String, String> {
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--entries" => {
                args.entries = grab(&argv, i, "--entries")?
                    .parse()
                    .map_err(|_| "bad --entries")?;
                i += 1;
            }
            "--seed" => {
                args.seed = parse_u64(&grab(&argv, i, "--seed")?)?;
                i += 1;
            }
            "--out" => {
                args.out = grab(&argv, i, "--out")?;
                i += 1;
            }
            "--plans" => {
                args.plans = grab(&argv, i, "--plans")?
                    .parse()
                    .map_err(|_| "bad --plans")?;
                i += 1;
            }
            "--replay" => {
                args.replay = Some(parse_u64(&grab(&argv, i, "--replay")?)?);
                i += 1;
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: replog [--entries N] [--seed S] [--out PATH] \
                     [--smoke [--plans N]] | --replay SEED"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|e| format!("bad number {s:?}: {e}"))
}

struct Cell {
    committed: usize,
    ticks: u64,
    p50_ticks: u64,
    p99_ticks: u64,
    commits_per_kilotick: f64,
    wall_ms: f64,
    publishes: u64,
    refetches: u64,
    elections: u64,
}

/// One bench cell: a fresh clean-or-lossy fabric, one cluster run,
/// commit latency percentiles off the tick-stamped history.
fn run_cell(path: PublishPath, loss_pct: u32, entries: usize, seed: u64) -> Cell {
    let loss = if loss_pct == 0 {
        LossModel::None
    } else {
        LossModel::bernoulli(f64::from(loss_pct) / 100.0)
    };
    let fab = Fabric::new(WireConfig {
        loss,
        seed: derive_seed(seed, 0x11),
        ..WireConfig::default()
    });
    let cfg = ReplogConfig {
        entries,
        path,
        seed,
        ticks: 120_000,
        max_log: entries * 2 + 32,
        ..ReplogConfig::default()
    };
    let t0 = Instant::now();
    let out = Cluster::new(&fab, cfg).run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // First Proposed and first Committed tick per client sequence number
    // (a retried entry keeps its original propose tick — the client saw
    // the latency of the whole exchange).
    let mut proposed: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut last_commit_tick = 0u64;
    for ev in &out.history.events {
        match *ev {
            Event::Proposed { tick, seq, .. } => {
                proposed.entry(seq).or_insert(tick);
            }
            Event::Committed { tick, seq, .. } if seq != 0 => {
                if let Some(p) = proposed.remove(&seq) {
                    latencies.push(tick - p);
                    last_commit_tick = last_commit_tick.max(tick);
                }
            }
            _ => {}
        }
    }
    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        latencies[(latencies.len() * p / 100).min(latencies.len() - 1)]
    };
    let commits_per_kilotick = if last_commit_tick == 0 {
        0.0
    } else {
        latencies.len() as f64 * 1e3 / last_commit_tick as f64
    };
    Cell {
        committed: latencies.len(),
        ticks: out.ticks,
        p50_ticks: pct(50),
        p99_ticks: pct(99),
        commits_per_kilotick,
        wall_ms,
        publishes: out.publishes,
        refetches: out.refetch_transfers,
        elections: out.elections,
    }
}

fn path_label(path: PublishPath) -> &'static str {
    match path {
        PublishPath::WriteRecord => "write_record",
        PublishPath::TwoSided => "two_sided",
    }
}

fn smoke(args: &Args) -> ExitCode {
    // Bounded chaos sweep: every agreement invariant under seeded fault
    // plans across both publish paths and freeze fail-overs.
    let opts = ReplogOpts::default();
    let reports = run_replog_sweep(args.seed, args.plans, &opts);
    let mut failed = 0usize;
    for (i, rep) in reports.iter().enumerate() {
        if !rep.ok() || !rep.outcome.converged {
            failed += 1;
            eprintln!("plan {i} seed={:#018x} FAILED", rep.seed);
            eprint!("{}", rep.render_failure());
        }
    }
    if failed > 0 {
        eprintln!("replog smoke: {failed}/{} chaos plans FAILED", args.plans);
        return ExitCode::FAILURE;
    }
    println!(
        "replog smoke: {} chaos plans passed (master seed {:#x})",
        args.plans, args.seed
    );
    ExitCode::SUCCESS
}

fn replay(seed: u64) -> ExitCode {
    let rep = run_replog_plan(seed, &ReplogOpts::default());
    println!(
        "replay seed={seed:#x}: {} fault events, {} violations, converged={} \
         ({} publishes, {} refetches, {} ticks)",
        rep.fault_trace.len(),
        rep.violations.len(),
        rep.outcome.converged,
        rep.outcome.publishes,
        rep.outcome.refetch_transfers,
        rep.outcome.ticks,
    );
    if rep.ok() {
        println!("replay PASSED");
        ExitCode::SUCCESS
    } else {
        print!("{}", rep.render_failure());
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("replog: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(seed) = args.replay {
        return replay(seed);
    }
    if args.smoke {
        return smoke(&args);
    }

    let losses: [u32; 3] = [0, 2, 8];
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "\"bench\": \"replog\",");
    let _ = writeln!(json, "\"seed\": {},", args.seed);
    let _ = writeln!(json, "\"entries_per_cell\": {},", args.entries);
    let _ = writeln!(json, "\"replicas\": 3,");
    let _ = writeln!(json, "\"runs\": [");

    let mut first = true;
    for path in [PublishPath::WriteRecord, PublishPath::TwoSided] {
        for (li, &loss) in losses.iter().enumerate() {
            let cell_seed = derive_seed(
                args.seed,
                (li as u64) << 8 | u64::from(path == PublishPath::TwoSided),
            );
            let c = run_cell(path, loss, args.entries, cell_seed);
            eprintln!(
                "  {:>12} @ {loss}% loss: {} commits in {} ticks, latency p50 {} / p99 {} ticks, \
                 {:.2} commits/kilotick, {} publishes, {} refetches, {} elections ({:.0} ms wall)",
                path_label(path),
                c.committed,
                c.ticks,
                c.p50_ticks,
                c.p99_ticks,
                c.commits_per_kilotick,
                c.publishes,
                c.refetches,
                c.elections,
                c.wall_ms,
            );
            if !first {
                let _ = writeln!(json, ",");
            }
            first = false;
            let _ = write!(
                json,
                "  {{\"path\": \"{}\", \"loss_pct\": {loss}, \"committed\": {}, \
                 \"ticks\": {}, \"commit_latency_p50_ticks\": {}, \
                 \"commit_latency_p99_ticks\": {}, \"commits_per_kilotick\": {:.3}, \
                 \"publishes\": {}, \"refetch_transfers\": {}, \"elections\": {}, \
                 \"wall_ms\": {:.2}}}",
                path_label(path),
                c.committed,
                c.ticks,
                c.p50_ticks,
                c.p99_ticks,
                c.commits_per_kilotick,
                c.publishes,
                c.refetches,
                c.elections,
                c.wall_ms,
            );
        }
    }
    let _ = writeln!(json, "\n]");
    let _ = writeln!(json, "}}");
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        let _ = fs::create_dir_all(dir);
    }
    if let Err(e) = fs::write(&args.out, &json) {
        eprintln!("replog: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("replog: wrote {}", args.out);
    ExitCode::SUCCESS
}
