#!/usr/bin/env bash
# What `cargo test` cannot check: formatting, lints, rustdoc warnings
# and the standalone benchmark harness.  Behaviour is gated by the
# workspace tests alone.  Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# every scratch file below lives in this one directory
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

echo "== format =="
cargo fmt --check

echo "== lints (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== docs (no rustdoc warnings) =="
doc_log=$(cargo doc --no-deps --workspace 2>&1) || { echo "$doc_log"; exit 1; }
if echo "$doc_log" | grep -q "^warning"; then
    echo "$doc_log" | grep -A4 "^warning"
    echo "verify: rustdoc warnings"
    exit 1
fi

echo "== benchmark: harness tests, then one driver-mode run that must pass its gates =="
# same target directory as run.sh, so the harness reuses the crates
# the workspace tests just compiled; --locked fails here, instead of
# rewriting benchmark/Cargo.lock, when a crate change would move it
CARGO_TARGET_DIR=target cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
benchmark/run.sh --workload tables_warm --seed 1 --seconds 2 --trace 0 \
    2> "$smoke/benchmark.log" | tail -n 1 > "$smoke/benchmark.json" || {
    echo "verify: benchmark/run.sh failed"; tail -20 "$smoke/benchmark.log"; exit 1; }
jq -e .correct "$smoke/benchmark.json" > /dev/null || {
    echo "verify: the tables_warm benchmark run failed its correctness gates"
    cat "$smoke/benchmark.json"; exit 1; }
echo "benchmark harness tests pass; tables_warm ran with every gate green"

echo "verify: OK"
