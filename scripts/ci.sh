#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verify (see ROADMAP.md).
#
#   scripts/ci.sh            # fmt --check, clippy -D warnings, build, tests,
#                            # benchmark/check.sh (the benchmark is its own
#                            # workspace: `cargo test` never compiles it),
#                            # then scripts/loc.sh's line counts
#
# After the full suite, every stage re-runs tests under a different
# environment (CPU placement, poller backend, codec pin, build profile,
# feature); a plain filtered re-run of what `cargo test -q` already ran adds
# nothing and is not repeated here.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> one CPU (the benchmark's placement: batches run on one producer)"
taskset -c 0 cargo test -q -p pperf-httpd -p pperf-ogsi -p pperf-gateway

echo "==> minidb bound plans in release (arithmetic without debug overflow checks)"
cargo test -q --release -p pperf-minidb

echo "==> httpd event-loop soak (1000+ parked keep-alive connections)"
cargo test -q -p pperf-httpd --features soak --test event_loop

echo "==> httpd and container suites on the portable poll(2) backend (worker re-arms go through the loop)"
PPG_FORCE_POLL=1 cargo test -q -p pperf-httpd -p pperf-ogsi
PPG_FORCE_POLL=1 cargo test -q -p pperf-gateway --test wire_equivalence

echo "==> PPG_FORCE_XML=1: every target per-call over SOAP/XML (the oracle, notify events, spill)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test wire_equivalence --test federation \
    --test deadline --test notify --test segment_cache
PPG_FORCE_XML=1 cargo test -q -p ppg-notify

echo "==> substrate microbenches (segment_cache group: lookup ns per returned row, merge-insert ns per row)"
cargo bench -q -p pperf-bench --bench substrates

echo "==> repo benchmark harness (own workspace: build, self-tests, 1 s smoke of all five workloads)"
benchmark/check.sh

echo "==> non-blank non-test source lines per crate (information only, no threshold)"
scripts/loc.sh

echo "==> CI OK"
