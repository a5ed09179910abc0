#!/usr/bin/env bash
# Smoke test of the benchmark (about a minute): the self-tests, then three
# timed iterations of the one workload that moves and checks real bytes.
# `--iters` stamps the result partial, so nothing it prints can be
# mistaken for a measurement.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --offline --quiet
cargo run --release --offline --quiet -- --workload tile_verify_64 --iters 3 --trace 0
