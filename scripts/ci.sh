#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verify (see ROADMAP.md).
#
#   scripts/ci.sh            # fmt --check, clippy -D warnings, build, tests,
#                            # benchmark/check.sh (the benchmark is its own
#                            # workspace: `cargo test` never compiles it)
#   PPG_BENCH=1 scripts/ci.sh  # additionally run the gateway fan-out bench
#                              # (quick scale) and emit BENCH_gateway.json
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> tier-1: minidb bound plans (differential vs the interpreter oracle, allocation budget, release arithmetic)"
cargo test -q -p pperf-minidb --lib differential_tests
cargo test -q -p pperf-minidb --test alloc_budget
cargo test -q --release -p pperf-minidb

echo "==> call-context suite (deadlines, cancellation, tracing)"
cargo test -q -p ppg-context
cargo test -q -p pperf-gateway --test deadline

echo "==> httpd event-loop soak (1000+ parked keep-alive connections)"
cargo test -q -p pperf-httpd --features soak --test event_loop

echo "==> httpd suite on the portable poll(2) backend"
PPG_FORCE_POLL=1 cargo test -q -p pperf-httpd

echo "==> batched wire protocol suite (mixed fleets, per-entry faults/deadlines)"
cargo test -q -p pperf-soap batch
cargo test -q -p pperf-gateway --test batch
PPG_FORCE_POLL=1 cargo test -q -p pperf-gateway --test batch

echo "==> binary data plane suite (PPGB codec, negotiation, mixed fleets)"
cargo test -q -p pperf-soap wire
cargo test -q -p pperf-gateway --test binary
cargo test -q -p pperf-gateway --test force_xml
echo "==> binary data plane: PPG_FORCE_XML=1 pass (fallback path stays green)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test batch --test federation --test deadline

echo "==> push notification plane suite (subscriptions, delta push, invalidation)"
cargo test -q -p ppg-notify
cargo test -q -p pperf-gateway --test notify
echo "==> push notification plane: PPG_FORCE_XML=1 pass (XML event codec stays green)"
PPG_FORCE_XML=1 cargo test -q -p ppg-notify
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test notify

echo "==> semantic segment cache suite (range subsumption, stress, spill, allocation budget of a hit)"
cargo test -q -p pperf-gateway --test segment_cache
cargo test -q -p pperf-gateway --test alloc_budget
echo "==> substrate microbenches (segment_cache group: lookup ns per returned row, merge-insert ns per row)"
cargo bench -q -p pperf-bench --bench substrates
echo "==> semantic segment cache: PPG_FORCE_XML=1 pass (spill is codec-negotiation independent)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test segment_cache

echo "==> streaming data path suite (incremental frames, backpressure, partial results)"
cargo test -q -p pperf-soap stream
cargo test -q -p pperf-httpd stream
cargo test -q -p pperf-gateway --test streaming
echo "==> streaming data path: PPG_FORCE_XML=1 pass (the pin serves buffered, never streams)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test force_xml

echo "==> batch-streaming suite (interleaved entry sections, per-entry truncation, fallback)"
cargo test -q -p pperf-soap batch_stream
cargo test -q -p pperf-gateway --test batch_stream
echo "==> batch-streaming: PPG_FORCE_XML=1 pass (the pin keeps batches buffered XML)"
PPG_FORCE_XML=1 cargo test -q -p pperf-gateway --test force_xml --test batch --test federation

echo "==> repo benchmark harness (own workspace: build, self-tests, 1 s smoke of all five workloads)"
benchmark/check.sh

if [[ "${PPG_BENCH:-0}" == "1" ]]; then
    echo "==> gateway fan-out bench (quick scale)"
    PPG_QUICK=1 cargo run --release -p pperf-bench --bin gateway_fanout
fi

echo "==> CI OK"
