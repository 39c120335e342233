#!/usr/bin/env sh
# Tier-1 gate plus lint, exactly what CI runs. Usage: scripts/ci.sh
#
# The build is fully offline: every external crate resolves to a vendored
# shim under shims/ (see ROADMAP.md), so no registry access is needed.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1: root-package full-stack tests)"
cargo test -q

echo "==> cargo test --workspace -q (per-crate suites)"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> seed audit: no entropy-seeded RNGs outside shims/"
if grep -rn "from_entropy" crates src tests examples 2>/dev/null; then
    echo "entropy-seeded RNG found: use iwarp_common::rng (seeded, reproducible)" >&2
    exit 1
fi

echo "==> chaos smoke: 25 seeded adversarial plans, both batching paths"
# Deterministic: a failure prints the plan seed; reproduce it with
#   cargo run --release -p iwarp-bench --bin chaos -- --replay <seed> [--burst-path burst]
# Nightly soak: cargo test --release --test chaos -- --include-ignored
for bpath in per-packet burst; do
    cargo run --release -p iwarp-bench --bin chaos -- --plans 25 --burst-path "$bpath"
done

echo "==> chaos smoke under adaptive congestion control (newreno)"
# Same adversary, reliable phase driven by NewReno instead of the legacy
# fixed window — verbs/socket fault traces must stay seed-deterministic.
cargo run --release -p iwarp-bench --bin chaos -- --plans 25 --cc newreno

echo "==> burst smoke: batched-verbs datapath A/B at the acceptance cell"
# Fails unless burst-32 x 64 B beats per-packet >= 2x msgs/s AND both
# paths take zero shared fabric locks on hot transmit (per-link rings,
# PR 7). The committed BENCH_PR5.json is the full sweep; the smoke
# result goes to target/ so it never clobbers it.
cargo run --release -p iwarp-bench --bin burst -- --smoke --out target/burst_smoke.json

echo "==> recovery smoke: NewReno vs fixed at 1% loss (>= 2x gate)"
# Bounded slice of the loss-recovery sweep; fails unless the adaptive
# controller beats the legacy fixed window >= 2x rdgram msgs/s at 1%
# Bernoulli loss. The committed BENCH_PR6.json is the full sweep.
cargo run --release -p iwarp-bench --bin recovery -- --smoke --out target/recovery_smoke.json

echo "==> replog smoke: 25 seeded agreement plans + one-sided throughput gate"
# The replicated-log oracle: every agreement invariant (total order, no
# lost acks, no divergence, lease exclusivity) under seeded chaos plans
# across both publish paths, then the one-sided >= two-sided
# commit-throughput sanity gate. A failure prints the plan seed;
# reproduce it with
#   cargo run --release -p iwarp-bench --bin replog -- --replay <seed>
cargo run --release -p iwarp-bench --bin replog -- --smoke --plans 25

echo "==> bulkread smoke: selective signaling at 1 MiB (lastonly >= 1.3x every1)"
# Bounded slice of the read-engine sweep on the 80 ms pipe; fails unless
# last-only signaling beats per-batch signaling >= 1.3x goodput at 1 MiB
# batches. The committed BENCH_PR8.json is the full sweep.
cargo run --release -p iwarp-bench --bin bulkread -- --smoke --out target/bulkread_smoke.json

echo "==> scale smoke: 256/1024 SIP calls, 2 shards, event-driven completions"
# Bounded concurrency-scaling run (legacy baseline + sharded/event mode);
# fails if any call fails to establish. On hosts with host_cpus >= 2 it
# additionally gates the PR 7 multi-core ratio: 4 pinned event shards
# must beat 1 by >= 1.5x msgs/s; single-core hosts record an honest skip
# (with host_cpus) in the acceptance JSON. The 1024-call event run also
# carries the PR 10 memory gate: instrumented per-call bytes <= 6 KiB
# (slab/arena compaction budget; pre-compaction baseline was ~18 KiB).
# Full matrix: bin scale (no flags); 100k memory ramp: bin scale --ramp.
cargo run --release -p iwarp-bench --bin scale -- --smoke --out target/scale_smoke.json

echo "==> figures smoke: fig5/fig6 CSVs sane"
out="target/ci-figures"
rm -rf "$out"
cargo run --release -p iwarp-bench --bin figures -- \
    --fig5 --fig6 --quick --out "$out" >/dev/null
sh scripts/check_figures.sh "$out"

echo "==> suite smoke: the BENCHMARK.json workloads build, run and verify every op"
# ~10 s on a 2-CPU host. Catches a library edit that breaks the suite's
# build or fails an op here rather than in the benchmark run. The metric
# table goes to target/suite/smoke.json; failures print to stderr.
cargo run --release -p iwarp-bench --bin suite -- --smoke >/dev/null

echo "CI green."
