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

echo "==> suite smoke: the BENCHMARK.json workloads build, run and verify every op"
# ~10 s on a 2-CPU host, and first after the lint: a library edit that
# breaks the suite's build or fails an op is reported here rather than in
# the benchmark run. The metric table goes to target/suite/smoke.json;
# failures print to stderr.
cargo run --release -p iwarp-bench --bin suite -- --smoke >/dev/null

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
# Same adversary, reliable phase driven by NewReno, which is what RD QPs
# run by default (RdConfig::default()); the sweeps above stay on `fixed`
# because chaos replays are pinned to it (ChaosOpts::cc). Verbs/socket
# fault traces must stay seed-deterministic.
cargo run --release -p iwarp-bench --bin chaos -- --plans 25 --cc newreno

echo "==> replog smoke: 25 seeded agreement plans"
# The replicated-log oracle: every agreement invariant (total order, no
# lost acks, no divergence, lease exclusivity) under seeded chaos plans
# across both publish paths. A failure prints the plan seed; reproduce
# it with
#   cargo run --release -p iwarp-bench --bin replog -- --replay <seed>
cargo run --release -p iwarp-bench --bin replog -- --smoke --plans 25

echo "==> scale ramp smoke: 1024 held SIP dialogs, per-call memory <= 6 KiB"
# The 100k memory ramp at smoke size; the memacct gate is exact on any host.
cargo run --release -p iwarp-bench --bin scale -- --ramp-calls 1024 --out target/scale_ramp_smoke.json

echo "==> figures smoke: fig5/fig6 CSVs sane, extension rows produced"
out="target/ci-figures"
rm -rf "$out"
cargo run --release -p iwarp-bench --bin figures -- \
    --fig5 --fig6 --ext --quick --out "$out" >/dev/null
sh scripts/check_figures.sh "$out"

echo "CI green."
