//! `suite` — the repository's benchmark: seven workloads, each run once
//! untraced (end-to-end metrics) and once traced (per-layer metrics), in
//! one process pinned to one core, over the in-process fabric only.
//!
//! ```text
//! suite [--seed S] [--seconds N] [--out FILE] [--workload NAME]... [--no-trace]
//! suite --workload NAME --seed S --seconds N --trace 0|1     (BENCHMARK.json's driver)
//! suite --smoke
//! suite --compare A.json[,A2.json...] B.json[,B2.json...]
//! ```
//!
//! See README.md in this directory for every workload and metric, the
//! predictions written down before measuring, and the library surface
//! the suite is allowed to call.

mod harness;
mod json;
mod ladder;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{now_ns, Limit, Spec};
use json::Json;
use metrics::{end_to_end, per_layer, window_rates, LayerInputs, Measured};
use report::{Env, PassResult, WorkloadResult};
use stats::{median, P99_MIN_SAMPLES};

const DEFAULT_SEED: u64 = 0x5EED_2011;
const DEFAULT_WINDOW_S: u64 = 12;
const ROUNDS: usize = 7;
const USAGE: &str = "usage: suite [--seed S] [--seconds N] [--out FILE] [--workload NAME]... \
                     [--no-trace] [--trace 0|1] [--smoke] | --compare A.json[,..] B.json[,..]";

struct Options {
    seed: u64,
    window: Duration,
    /// Minimum time per ladder rung.
    rung: Duration,
    /// Rounds per pass: each sets up a fresh world and measures
    /// `window / rounds` on it; `setup_s` is the median set-up.
    rounds: usize,
    min_samples: usize,
    /// Fail the run when a ladder rung costs less than the one below it.
    check_ladder: bool,
}

struct Args {
    seed: u64,
    seconds: u64,
    out: String,
    workloads: Vec<&'static Spec>,
    /// Whether the traced pass follows the untraced one.
    trace: bool,
    /// `--trace 0|1` was given: one workload, and the last line of
    /// standard output is the result object BENCHMARK.json's driver
    /// reads (`--trace 0` is `--no-trace` with that line).
    driver: bool,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_WINDOW_S,
        out: "target/suite/result.json".into(),
        workloads: Vec::new(),
        trace: true,
        driver: false,
        smoke: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => {
                let v = value()?;
                let parsed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                args.seed = parsed.map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--out" => args.out = value()?,
            "--workload" => {
                let v = value()?;
                let spec = workloads::spec(&v).ok_or(format!("unknown workload {v:?}"))?;
                args.workloads.push(spec);
            }
            "--no-trace" => args.trace = false,
            "--trace" => {
                args.driver = true;
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.driver && args.workloads.len() != 1 {
        return Err("--trace reports one workload: give exactly one --workload".into());
    }
    if args.workloads.is_empty() {
        args.workloads = workloads::SPECS.iter().collect();
    }
    Ok(args)
}

/// Builds and warms one world; returns it with the time that took.
fn set_up(spec: &Spec, seed: u64) -> Result<(Box<dyn harness::World>, f64), String> {
    let start = Instant::now();
    let mut world = (spec.build)(seed)?;
    let warm = world.run(Limit::Ops(spec.warmup_ops), false)?;
    if warm.failed > 0 {
        return Err(format!(
            "{} of {} warm-up operations failed",
            warm.failed, warm.attempted
        ));
    }
    Ok((world, start.elapsed().as_secs_f64()))
}

fn window_end(window: Duration) -> Limit {
    Limit::Until(now_ns() + window.as_nanos() as u64)
}

/// What one pass (untraced or traced) over a workload measured.
struct Pass {
    /// Every round's window folded together.
    tally: harness::Tally,
    /// Time each round's set-up took.
    setup_s: Vec<f64>,
    /// Telemetry change over each round's window (traced pass only).
    deltas: Vec<iwarp_telemetry::Snapshot>,
    /// What the last `Telemetry::snapshot()` before a window cost.
    snapshot_us: f64,
    /// Serving-side tracked bytes at the end of the last round, and the
    /// calls they serve.
    mem_bytes: u64,
    calls: u64,
}

/// One pass: `opts.rounds` rounds, each of which sets up a world of its
/// own and measures an equal share of the window on it. Every share
/// starts from the same state (a fresh world after a fixed number of
/// warm-up operations), so a workload that ages as it runs (`sip_1k`)
/// is measured at one age and not at a mix that depends on how far the
/// host let it get.
fn run_pass(spec: &Spec, opts: &Options, traced: bool) -> Result<Pass, String> {
    let share = opts.window / opts.rounds as u32;
    let mut pass = Pass {
        tally: harness::Tally::new(now_ns()),
        setup_s: Vec::with_capacity(opts.rounds),
        deltas: Vec::with_capacity(opts.rounds),
        snapshot_us: 0.0,
        mem_bytes: 0,
        calls: 0,
    };
    for _ in 0..opts.rounds {
        let (mut world, took) = set_up(spec, opts.seed)?;
        pass.setup_s.push(took);
        let telemetry = world.telemetry();
        let snap_start = Instant::now();
        let before = traced.then(|| telemetry.snapshot());
        pass.snapshot_us = snap_start.elapsed().as_secs_f64() * 1e6;
        pass.tally.absorb(world.run(window_end(share), traced)?);
        pass.deltas
            .extend(before.map(|b| telemetry.snapshot().delta(&b)));
        let (registry, calls) = world.memory();
        (pass.mem_bytes, pass.calls) = (registry.total_current(), calls);
    }
    Ok(pass)
}

fn run_workload(
    spec: &'static Spec,
    opts: &Options,
    trace: bool,
) -> Result<WorkloadResult, String> {
    // Untraced pass: the end-to-end numbers, and the rate the traced
    // pass's overhead is taken against.
    let pass = run_pass(spec, opts, false)?;
    let measured = Measured {
        setup_s: median(&pass.setup_s),
        mem_bytes: pass.mem_bytes,
        calls: pass.calls,
    };
    // The sample-count rule binds where a p99 is reported.
    let min_samples = if spec.reports("op_p99_us") {
        opts.min_samples
    } else {
        0
    };
    let (e2e_metrics, latency_samples) = end_to_end(&pass.tally, &measured, min_samples)?;
    let [untraced_rate, ..] = window_rates(&pass.tally).ok_or("no operation completed")?;
    let untraced = PassResult {
        metrics: e2e_metrics,
        attempted: pass.tally.attempted,
        failed: pass.tally.failed,
        latency_samples,
    };
    drop(pass);
    if !trace {
        return Ok(WorkloadResult {
            spec,
            end_to_end: untraced,
            per_layer: None,
        });
    }

    // The traced pass runs the same rounds on worlds of its own, so both
    // passes measure the same states and their difference is the tracing.
    let pass = run_pass(spec, opts, true)?;
    let traced = &pass.tally;
    let rss_bytes = iwarp_common::memacct::procfs_rss_bytes();
    let ladder = ladder::run(spec.ladder_bytes, spec.ladder_verb, opts.rung, opts.seed)?;
    if opts.check_ladder {
        ladder.monotone()?;
    }
    let [traced_rate, ..] = window_rates(traced).ok_or("no traced operation completed")?;
    let layers = per_layer(&LayerInputs {
        tally: traced,
        deltas: &pass.deltas,
        ladder: &ladder,
        snapshot_us: pass.snapshot_us,
        trace_overhead_frac: 1.0 - traced_rate / untraced_rate,
        tracked_bytes: pass.mem_bytes,
        rss_bytes,
    });
    write_trace(spec.name, traced)?;
    Ok(WorkloadResult {
        spec,
        end_to_end: untraced,
        per_layer: Some(PassResult {
            metrics: layers,
            attempted: traced.attempted,
            failed: traced.failed,
            latency_samples: traced.latency_ns.len(),
        }),
    })
}

/// Spans go to `target/suite/trace/<workload>.jsonl`, one JSON object
/// per line, a block per thread.
fn write_trace(name: &str, tally: &harness::Tally) -> Result<(), String> {
    let dir = std::path::Path::new("target/suite/trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = String::new();
    for rec in &tally.recorders {
        rec.write_jsonl(&mut out);
    }
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// `workload metric value unit` for every cell the workload reports,
/// latencies with their sample count, then the per-layer table.
fn print_result(r: &WorkloadResult) {
    let (name, e2e) = (r.spec.name, &r.end_to_end);
    for m in e2e.metrics.iter().filter(|m| r.spec.reports(m.name)) {
        let samples = if m.name.starts_with("op_p") {
            format!("  (n={})", e2e.latency_samples)
        } else {
            String::new()
        };
        println!("{name} {} {} {}{samples}", m.name, m.value, m.unit);
    }
    println!(
        "{name} fail_frac {} frac  ({} of {})",
        e2e.fail_frac(),
        e2e.failed,
        e2e.attempted
    );
    for m in r.per_layer.iter().flat_map(|p| &p.metrics) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
}

fn read_benchmark_json() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))
}

fn failed_ops(results: &[WorkloadResult]) -> u64 {
    results
        .iter()
        .flat_map(|r| Some(&r.end_to_end).into_iter().chain(&r.per_layer))
        .map(|p| p.failed)
        .sum()
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let worse = report::compare_files(a, b, &read_benchmark_json()?)?;
        return Ok(!worse);
    }

    // Before anything is created: threads inherit the mask, so the whole
    // process shares one core and the scheduler cannot decide the result.
    let host_cpus = iwarp_common::affinity::host_cpus();
    let pinned_core = iwarp_common::affinity::pin_to_core(0).then_some(0);
    if pinned_core.is_none() {
        eprintln!("warning: could not pin to core 0; this run is not comparable");
    }

    let opts = if args.smoke {
        Options {
            seed: args.seed,
            window: Duration::from_millis(300),
            rung: Duration::from_millis(50),
            rounds: 1,
            min_samples: 0,
            check_ladder: true,
        }
    } else {
        Options {
            seed: args.seed,
            // `--seconds` is how long one driver run measures: with
            // `--trace 1` its two passes take half each.
            window: Duration::from_secs(args.seconds)
                / if args.driver && args.trace { 2 } else { 1 },
            rung: Duration::from_millis(300),
            rounds: ROUNDS,
            min_samples: P99_MIN_SAMPLES,
            check_ladder: false,
        }
    };
    let mut results = Vec::new();
    for spec in &args.workloads {
        eprintln!("== {} ==", spec.name);
        let result =
            run_workload(spec, &opts, args.trace).map_err(|e| format!("{}: {e}", spec.name))?;
        print_result(&result);
        results.push(result);
    }
    report::check_output(&results)?;
    let failed = failed_ops(&results);

    if args.smoke {
        report::check_benchmark_json(&read_benchmark_json()?)?;
    }
    if args.driver {
        // Every end-to-end metric untraced, every per-layer metric
        // traced; the counts cover every window that ran.
        let r = &results[0];
        let passes = [Some(&r.end_to_end), r.per_layer.as_ref()];
        let count = |f: fn(&PassResult) -> u64| passes.iter().flatten().map(|p| f(p)).sum::<u64>();
        let line = Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(count(|p| p.attempted) as f64)),
            ("failed", Json::Num(count(|p| p.failed) as f64)),
            (
                "metrics",
                r.per_layer.as_ref().unwrap_or(&r.end_to_end).metrics_json(),
            ),
        ]);
        println!("{}", line.compact());
    } else {
        let env = Env {
            host_cpus,
            pinned_core,
            seed: opts.seed,
            window_s: opts.window.as_secs_f64(),
            rung_s: opts.rung.as_secs_f64(),
            rounds: opts.rounds,
        };
        let out = if args.smoke {
            "target/suite/smoke.json"
        } else {
            args.out.as_str()
        };
        if let Some(dir) = std::path::Path::new(out)
            .parent()
            .filter(|d| !d.as_os_str().is_empty())
        {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(out, report::result_json(&env, &results).pretty())
            .map_err(|e| format!("{out}: {e}"))?;
        eprintln!("wrote {out}");
    }
    if failed > 0 {
        eprintln!("{failed} operations failed");
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(attempted: u64, failed: u64) -> PassResult {
        PassResult {
            metrics: Vec::new(),
            attempted,
            failed,
            latency_samples: 0,
        }
    }

    /// One operation whose bytes did not match (see
    /// `harness::tests::a_corrupted_payload_fails_the_check`) is enough
    /// for `run` to return `Ok(false)`, which `main` turns into a
    /// non-zero exit.
    #[test]
    fn any_failed_operation_fails_the_run() {
        let clean = WorkloadResult {
            spec: &workloads::SPECS[0],
            end_to_end: pass(100, 0),
            per_layer: Some(pass(100, 0)),
        };
        assert_eq!(failed_ops(std::slice::from_ref(&clean)), 0);
        let dirty = WorkloadResult {
            spec: &workloads::SPECS[6],
            end_to_end: pass(100, 0),
            per_layer: Some(pass(100, 1)),
        };
        assert_eq!(failed_ops(&[clean, dirty]), 1);
    }

    #[test]
    fn driver_arguments_report_one_workload() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sip_1k --seed 7 --seconds 6 --trace 1")).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace, a.driver), (7, 6, true, true));
        assert_eq!(a.workloads.len(), 1);
        let a = parse_args(&argv("--workload sip_1k --no-trace")).unwrap();
        assert!(!a.trace && !a.driver);
        assert!(parse_args(&argv("--trace 0")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert_eq!(
            parse_args(&[]).unwrap().workloads.len(),
            workloads::SPECS.len()
        );
    }
}
