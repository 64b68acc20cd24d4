#!/usr/bin/env bash
# Build the benchmark, run its self-tests, then a 1-second smoke run of every
# workload, untraced and traced. This validates the harness, not the system:
# smoke windows are too short for the sample floor, which they waive.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo build --release --offline --manifest-path "$manifest"
cargo test --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --smoke --seed 1
cargo run --release --offline --quiet --manifest-path "$manifest" -- trace --smoke --seed 1
