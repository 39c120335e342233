#!/usr/bin/env python3
"""Run suite workloads N times each and show the modes their runs fall into.

Usage:
    scripts/modes.py [-n N] [--seconds S] [--seed S] [--workload W]...
                     [--bin [LABEL=]PATH]... [--profile N]

Each run is one untraced suite process:

    PATH --workload W --seed S --seconds S --trace 0

For every run the script prints `op_p50_us`, `ops_per_s`, and the
voluntary and involuntary context switches per operation. The switches
come from the child's own `getrusage` (through `os.wait4`), summed over
all its threads and divided by the operations the run reports, so set-up
and warm-up switches are included. Then it sorts the runs by `op_p50_us`
and splits them into modes wherever two neighbours lie more than 10 %
apart, and prints each mode's range.

`--profile N` runs every suite process under `scripts/profile.py --top N`
(which pins it to CPU 0, as the suite pins itself, and samples it at
4 kHz) and prints each run's N hottest functions by self samples under
its row, so a run in one mode can be told from a run in another by where
its time went. The figures of a profiled run include the sampling
overhead, so compare profiled runs with profiled runs only.

Several `--bin` options compare binaries. Runs alternate between them
(run i of every binary, then run i + 1), so a drift of the host during the
measurement falls on all of them alike, and each binary gets its own table.
The order within a round flips every round, so no binary always runs
first. With exactly two binaries, run i of each is a pair, and the
script also prints how many pairs the second binary won on each figure
and the change of the medians. Build the binaries first, for example:

    cargo build --release --manifest-path crates/bench/src/bin/suite/Cargo.toml
    scripts/modes.py -n 10 --workload pingpong_64B \\
        --bin crates/bench/src/bin/suite/target/release/suite

The default binary is that path. Only the standard library is used.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

DEFAULT_BIN = "crates/bench/src/bin/suite/target/release/suite"
PROFILER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "profile.py")
WORKLOADS = [
    "pingpong_64B",
    "flood_64B_x32",
    "bulk_wr_1MiB",
    "bulk_read_1MiB",
    "rd_1KiB_loss1",
    "rc_bw_64KiB",
    "sip_1k",
]
# Neighbouring runs further apart than this (relative op_p50_us) start a
# new mode.
MODE_GAP = 0.10


def run_once(path, workload, seconds, seed, profile_top):
    """One suite process; returns a dict of the figures this script shows.

    With `profile_top` > 0 the process runs under profile.py, whose
    rusage, as `wait4` reports it, includes the suite it waited for."""
    argv = [
        path,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    if profile_top:
        argv = [sys.executable, PROFILER, "--top", str(profile_top), "--", *argv]
    # The profile report comes on stderr, after the run: a file, so that
    # nothing blocks on a full pipe while stdout is read.
    with tempfile.TemporaryFile() as err:
        child = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=err if profile_top else subprocess.DEVNULL,
        )
        out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        profile = hottest(err.read().decode(errors="replace"))
    if child.returncode != 0:
        raise RuntimeError(f"{path} --workload {workload} exited {child.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    ops = max(result["attempted"], 1)
    return {
        "op_p50_us": metrics["op_p50_us"],
        "ops_per_s": metrics["ops_per_s"],
        "vcsw_per_op": usage.ru_nvcsw / ops,
        "ivcsw_per_op": usage.ru_nivcsw / ops,
        "failed": result["failed"],
        "profile": profile,
    }


def hottest(report):
    """The function lines of a profile.py report (`  self%  function`
    header on), or [] when there is none."""
    lines = report.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "self%  function":
            return [l for l in lines[i + 1:] if l.strip()]
    return []


def split_modes(runs):
    """Runs sorted by op_p50_us, cut wherever neighbours differ by > MODE_GAP."""
    ordered = sorted(runs, key=lambda r: r["op_p50_us"])
    modes = [[ordered[0]]]
    for prev, run in zip(ordered, ordered[1:]):
        if run["op_p50_us"] > prev["op_p50_us"] * (1 + MODE_GAP):
            modes.append([])
        modes[-1].append(run)
    return modes


def span(runs, key, fmt):
    values = [r[key] for r in runs]
    lo, hi = min(values), max(values)
    return fmt.format(lo) if lo == hi else f"{fmt.format(lo)}-{fmt.format(hi)}"


def report(label, workload, runs):
    print(f"== {workload}  [{label}]  {len(runs)} runs")
    print(f"   {'run':>4} {'op_p50_us':>10} {'ops_per_s':>11} {'vcsw/op':>8} {'ivcsw/op':>9}")
    for i, r in enumerate(runs):
        print(
            f"   {i:>4} {r['op_p50_us']:>10.2f} {r['ops_per_s']:>11.0f} "
            f"{r['vcsw_per_op']:>8.2f} {r['ivcsw_per_op']:>9.2f}"
            + (f"  failed={r['failed']}" if r["failed"] else "")
        )
        for line in r["profile"]:
            print(f"          {line}")
    modes = split_modes(runs)
    print(f"   {len(modes)} mode(s), split at a {MODE_GAP:.0%} gap in op_p50_us:")
    for m in modes:
        print(
            f"   - {len(m):>2} runs: op_p50_us {span(m, 'op_p50_us', '{:.2f}')}, "
            f"ops_per_s {span(m, 'ops_per_s', '{:.0f}')}, "
            f"vcsw/op {span(m, 'vcsw_per_op', '{:.2f}')}, "
            f"ivcsw/op {span(m, 'ivcsw_per_op', '{:.2f}')}"
        )
    print(
        f"   median: op_p50_us {statistics.median(r['op_p50_us'] for r in runs):.2f}, "
        f"ops_per_s {statistics.median(r['ops_per_s'] for r in runs):.0f}, "
        f"vcsw/op {statistics.median(r['vcsw_per_op'] for r in runs):.2f}, "
        f"ivcsw/op {statistics.median(r['ivcsw_per_op'] for r in runs):.2f}"
    )


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return q1, q2, q3


def compare(workload, bins, runs):
    """Pair wins of the second binary over the first, per figure."""
    (a, _), (b, _) = bins
    print(f"== {workload}  pairs: {b} against {a}")
    for key, higher_better in [
        ("ops_per_s", True),
        ("op_p50_us", False),
        ("vcsw_per_op", False),
        ("ivcsw_per_op", False),
    ]:
        pairs = list(zip(runs[a], runs[b]))
        wins = sum(
            (rb[key] > ra[key]) if higher_better else (rb[key] < ra[key])
            for ra, rb in pairs
            if rb[key] != ra[key]
        )
        qa = quartiles([r[key] for r in runs[a]])
        qb = quartiles([r[key] for r in runs[b]])
        print(
            f"   {key:>12}: {b} wins {wins}/{len(pairs)}, median "
            f"{qa[1]:.2f} -> {qb[1]:.2f} ({(qb[1] / qa[1] - 1) * 100:+.1f} %), "
            f"{a} IQR {qa[2] - qa[0]:.2f}, {b} IQR {qb[2] - qb[0]:.2f}"
        )


def parse_bin(spec):
    label, sep, path = spec.partition("=")
    return (label, path) if sep else (spec, spec)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", type=int, default=10, help="runs per workload and binary")
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeatable; default every workload")
    ap.add_argument("--bin", action="append", type=parse_bin,
                    help=f"[LABEL=]PATH, repeatable; default {DEFAULT_BIN}")
    ap.add_argument("--profile", type=int, default=0, metavar="N",
                    help="profile every run and print its N hottest functions")
    args = ap.parse_args()
    if args.n < 1 or args.seconds < 1:
        ap.error("-n and --seconds must be at least 1")
    if args.profile < 0:
        ap.error("--profile must be at least 0")
    bins = args.bin or [parse_bin(DEFAULT_BIN)]
    for _, path in bins:
        if not os.access(path, os.X_OK):
            ap.error(f"{path} is not an executable; build the suite first")
    for workload in args.workload or WORKLOADS:
        runs = {label: [] for label, _ in bins}
        for i in range(args.n):
            for label, path in bins if i % 2 == 0 else bins[::-1]:
                runs[label].append(
                    run_once(path, workload, args.seconds, args.seed, args.profile))
                print(f"\r{workload}: run {i + 1}/{args.n}", end="", file=sys.stderr, flush=True)
        print(file=sys.stderr)
        for label, _ in bins:
            report(label, workload, runs[label])
        if len(bins) == 2:
            compare(workload, bins, runs)


if __name__ == "__main__":
    main()
