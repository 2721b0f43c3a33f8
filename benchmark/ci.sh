#!/usr/bin/env bash
# Benchmark self-check: unit tests, a one-epoch smoke run of all four
# workloads (tracing off and on) and the sabotage self-test. Meant to be
# called from .github/workflows/ci.yml; run it from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --offline --quiet --manifest-path "$manifest"
ledger() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}
ledger all --epochs 1 --trace 0
ledger all --epochs 1 --trace 1
ledger --sabotage
echo "benchmark ci: ok"
