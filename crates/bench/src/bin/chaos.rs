//! `chaos` — seeded adversarial sweeps over the full datagram-iWARP
//! stack with cross-layer invariant checking.
//!
//! ```text
//! chaos [--plans N] [--seed MASTER] [--msgs N] [--dgrams N] [--verbose]
//! chaos --replay SEED
//! ```
//!
//! The sweep derives plan seed `i` as `derive_seed(MASTER, i)` and runs
//! each through `iwarp_chaos::run_plan`. On any invariant violation it
//! prints the failing plan seed plus the minimal fault trace and exits
//! nonzero; `chaos --replay <seed>` re-runs exactly that plan (same
//! faults byte-for-byte) with telemetry forensics enabled.

use std::process::ExitCode;

use iwarp_chaos::{run_plan, ChaosOpts};
use iwarp_common::rng::derive_seed;
use simnet::CcAlgo;

struct Args {
    plans: usize,
    seed: u64,
    replay: Option<u64>,
    msgs: Option<usize>,
    dgrams: Option<usize>,
    verbose: bool,
    cc: CcAlgo,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        plans: 25,
        seed: 0x1AAF_2026,
        replay: None,
        msgs: None,
        dgrams: None,
        verbose: false,
        cc: CcAlgo::Fixed,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--plans" => {
                args.plans = grab("--plans")?
                    .parse()
                    .map_err(|e| format!("--plans: {e}"))?
            }
            "--seed" => args.seed = parse_u64(&grab("--seed")?)?,
            "--replay" => args.replay = Some(parse_u64(&grab("--replay")?)?),
            "--msgs" => {
                args.msgs = Some(
                    grab("--msgs")?
                        .parse()
                        .map_err(|e| format!("--msgs: {e}"))?,
                )
            }
            "--dgrams" => {
                args.dgrams = Some(
                    grab("--dgrams")?
                        .parse()
                        .map_err(|e| format!("--dgrams: {e}"))?,
                );
            }
            "--verbose" | "-v" => args.verbose = true,
            "--cc" => {
                let spec = grab("--cc")?;
                args.cc = CcAlgo::parse(&spec)
                    .ok_or(format!("--cc takes 'fixed' or 'newreno', got {spec:?}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: chaos [--plans N] [--seed MASTER] [--msgs N] [--dgrams N] \
                     [--verbose] [--cc {{fixed,newreno}}] | --replay SEED"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    r.map_err(|e| format!("bad seed {s:?}: {e}"))
}

fn opts_from(args: &Args, forensic: bool) -> ChaosOpts {
    let mut o = ChaosOpts {
        forensic,
        cc: args.cc,
        ..ChaosOpts::default()
    };
    if let Some(m) = args.msgs {
        o.send_msgs = m;
        o.write_msgs = m;
    }
    if let Some(d) = args.dgrams {
        o.dgrams = d;
    }
    o
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(seed) = args.replay {
        let report = run_plan(seed, &opts_from(&args, true));
        println!(
            "replay seed={seed:#x}: {} fault events (verbs) + {} (socket) + \
             {} (read), {} violations",
            report.fault_trace.len(),
            report.socket_fault_trace.len(),
            report.read_fault_trace.len(),
            report.violations.len()
        );
        if args.verbose || !report.ok() {
            print!("{}", report.render_failure());
        }
        return if report.ok() {
            println!("replay PASSED");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let opts = opts_from(&args, args.verbose);
    let mut failed = 0usize;
    for i in 0..args.plans {
        let seed = derive_seed(args.seed, i as u64);
        let report = run_plan(seed, &opts);
        if report.ok() {
            if args.verbose {
                println!(
                    "plan {i:>3} seed={seed:#018x} ok — faults: {} verbs / {} socket / \
                     {} read / {} reliable, recv {}+{}exp, wr {} ({} full/{} part), \
                     crc_rej {}, bulk {}b+{}rp, reliable {}B+{}msgs under {}",
                    report.fault_trace.len(),
                    report.socket_fault_trace.len(),
                    report.read_fault_trace.len(),
                    report.reliable_fault_trace.len(),
                    report.verbs.recv_success,
                    report.verbs.recv_expired,
                    report.verbs.write_cqes,
                    report.verbs.write_success,
                    report.verbs.write_partial,
                    report.verbs.crc_errors,
                    report.bulk.batches,
                    report.bulk.reposts,
                    report.reliable.stream_bytes,
                    report.reliable.rd_msgs,
                    opts.cc,
                );
            }
        } else {
            failed += 1;
            eprintln!("plan {i} seed={seed:#018x} FAILED");
            eprint!("{}", report.render_failure());
        }
    }
    if failed == 0 {
        println!(
            "chaos: {} plans passed (master seed {:#x})",
            args.plans, args.seed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "chaos: {failed}/{} plans FAILED (master seed {:#x})",
            args.plans, args.seed
        );
        ExitCode::FAILURE
    }
}
