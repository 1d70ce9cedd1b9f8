#!/usr/bin/env bash
# The repo's verification gate: tier-1 build + tests, then a smoke run
# of the paper-table campaign.  Run from anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "== format =="
cargo fmt --check

echo "== lints (clippy, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release, all workspace binaries) =="
cargo build --release --workspace

echo "== tests (workspace) =="
cargo test -q --workspace

echo "== tests (scheduler + concurrency + history sidecar + serve + stores + load/faults + simulator exactness, release) =="
cargo test -q --release --test scheduler --test cache_concurrency \
    --test history_sidecar --test serve_concurrency --test golden_tables \
    --test store_backend --test loadgen_slo --test serve_faults \
    --test regime_map --test proptest_properties --test determinism

# every scratch file below lives in this one directory
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

echo "== cli: --help exits 0 on stdout, an unknown flag exits 2 with error: on stderr =="
for bin in paper_tables kc_served kc-loadgen kc_regime kc_store kc_trace; do
    rc=0
    ./target/release/$bin --help > "$smoke/help.out" 2> "$smoke/help.err" || rc=$?
    [ "$rc" -eq 0 ] && grep -q "^usage: $bin" "$smoke/help.out" && [ ! -s "$smoke/help.err" ] || {
        echo "verify: $bin --help exited $rc or did not print its usage on stdout"; exit 1; }
    rc=0
    ./target/release/$bin --no-such-flag > "$smoke/bad.out" 2> "$smoke/bad.err" < /dev/null || rc=$?
    [ "$rc" -eq 2 ] && grep -q "^error:" "$smoke/bad.err" && [ ! -s "$smoke/bad.out" ] || {
        echo "verify: $bin --no-such-flag exited $rc or printed no error: on stderr"; exit 1; }
done
echo "all six binaries share the help and usage-error conventions"

echo "== byte-identity: full tables under --jobs 1 vs --jobs 8 =="
j1="$smoke/j1.txt" && j8="$smoke/j8.txt"
./target/release/paper_tables all --noise-free --jobs 1 > "$j1" 2>/dev/null
./target/release/paper_tables all --noise-free --jobs 8 > "$j8" 2>/dev/null
if ! cmp -s "$j1" "$j8"; then
    echo "verify: tables differ between --jobs 1 and --jobs 8"
    diff "$j1" "$j8" | head -20
    exit 1
fi
echo "tables byte-identical across scheduler pool sizes"

echo "== byte-identity: tables under the json vs sharded store backend =="
bj="$smoke/bj.txt" && bs="$smoke/bs.txt"
./target/release/paper_tables bt-s transitions --noise-free \
    --store "json:$smoke/cells.json" > "$bj" 2>/dev/null
./target/release/paper_tables bt-s transitions --noise-free \
    --store "sharded:$smoke/cells.kcs" > "$bs" 2>/dev/null
if ! cmp -s "$bj" "$bs"; then
    echo "verify: tables differ between json and sharded store backends"
    diff "$bj" "$bs" | head -20
    exit 1
fi
[ -f "$smoke/cells.json" ] || { echo "verify: json store not written"; exit 1; }
[ -f "$smoke/cells.kcs/kcstore.json" ] || { echo "verify: sharded store not written"; exit 1; }
echo "tables byte-identical across store backends"

echo "== byte-identity: warm sharded re-run =="
bw="$smoke/bw.txt"
# warm re-run: open rebuilds the indexes from the first run's segments
./target/release/paper_tables bt-s transitions --noise-free \
    --store "sharded:$smoke/cells.kcs" > "$bw" 2>/dev/null
if ! cmp -s "$bj" "$bw"; then
    echo "verify: warm sharded run drifted"
    diff "$bj" "$bw" | head -20
    exit 1
fi
echo "tables byte-identical on the warm sharded re-run"

echo "== kc_regime: sweep determinism across --jobs + golden regime map =="
./target/release/kc_regime sweep --spec scripts/regime_small.json \
    --store "sharded:$smoke/regime.kcs" --jobs 1 \
    --json "$smoke/regime_j1.json" > "$smoke/regime_j1.txt" 2>/dev/null
./target/release/kc_regime sweep --spec scripts/regime_small.json \
    --store "sharded:$smoke/regime.kcs" --jobs 8 \
    --json "$smoke/regime_j8.json" > "$smoke/regime_j8.txt" 2> "$smoke/regime_warm.log"
if ! cmp -s "$smoke/regime_j1.txt" "$smoke/regime_j8.txt"; then
    echo "verify: regime maps differ between --jobs 1 and --jobs 8"
    diff "$smoke/regime_j1.txt" "$smoke/regime_j8.txt" | head -20
    exit 1
fi
cmp -s "$smoke/regime_j1.json" "$smoke/regime_j8.json" || {
    echo "verify: regime map JSON differs between --jobs 1 and --jobs 8"; exit 1; }
# the second run reads the first run's cells from the sharded store
grep -q " 0 cells executed" "$smoke/regime_warm.log" || {
    echo "verify: warm regime sweep re-executed cells"
    cat "$smoke/regime_warm.log"; exit 1; }
if ! cmp -s "$smoke/regime_j8.json" artifacts/golden/regime_map.json; then
    echo "verify: regime map drifted from artifacts/golden/regime_map.json"
    echo "        (UPDATE_GOLDEN=1 cargo test --release --test regime_map if intentional)"
    diff "$smoke/regime_j8.json" artifacts/golden/regime_map.json | head -20
    exit 1
fi
jq -e '[.chains[] | select(.machine=="multicore-smp") | .boundaries | length] | max >= 2' \
    "$smoke/regime_j8.json" > /dev/null || {
    echo "verify: no multicore-smp chain detected >=2 regime boundaries"; exit 1; }
echo "regime maps byte-identical across --jobs, match golden, shared-LLC regimes detected"

echo "== kc_store: json -> sharded -> json round-trips the golden store =="
./target/release/kc_store convert artifacts/golden/cells_extended.json \
    "sharded:$smoke/golden.kcs" > /dev/null
./target/release/kc_store convert "$smoke/golden.kcs" \
    "$smoke/golden_roundtrip.json" > /dev/null
if ! cmp -s artifacts/golden/cells_extended.json "$smoke/golden_roundtrip.json"; then
    echo "verify: kc_store convert round-trip is lossy"
    exit 1
fi
./target/release/kc_store stat "$smoke/golden.kcs" | grep -q "superseded ratio" || {
    echo "verify: kc_store stat did not report the superseded ratio"; exit 1; }
./target/release/kc_store compact "$smoke/golden.kcs" > /dev/null
./target/release/kc_store inspect "$smoke/golden.kcs" > /dev/null
echo "golden store round-trips losslessly through the sharded format"

echo "== serve: scripted batch vs golden transcript (pipe mode) =="
./target/release/kc_served --noise-free --store "$smoke/cells.json" \
    --trace "$smoke/serve_trace.jsonl" \
    < scripts/serve_smoke_requests.jsonl \
    > "$smoke/responses.jsonl" 2> "$smoke/cold.log"
if ! cmp -s artifacts/golden/serve_smoke.jsonl "$smoke/responses.jsonl"; then
    echo "verify: serve responses drifted from the golden transcript"
    diff artifacts/golden/serve_smoke.jsonl "$smoke/responses.jsonl" | head -20
    exit 1
fi
grep -q "exiting 0" "$smoke/cold.log" || {
    echo "verify: serve did not report a graceful shutdown"; cat "$smoke/cold.log"; exit 1; }
echo "serve responses match the golden transcript; graceful EOF shutdown"

echo "== serve: warm store answers the same batch with zero executions =="
./target/release/kc_served --noise-free --store "$smoke/cells.json" \
    < scripts/serve_smoke_requests.jsonl \
    > "$smoke/warm.jsonl" 2> "$smoke/warm.log"
grep -q ", 0 executed" "$smoke/warm.log" || {
    echo "verify: warm serve run re-executed cells"; cat "$smoke/warm.log"; exit 1; }
cmp -s artifacts/golden/serve_smoke.jsonl "$smoke/warm.jsonl" || {
    echo "verify: warm serve responses differ from the cold run"; exit 1; }
echo "warm store: 0 executions, byte-identical responses"

echo "== kc_trace: serve-smoke trace renders to a self-contained SVG =="
./target/release/kc_trace render "$smoke/serve_trace.jsonl" \
    -o "$smoke/serve_trace.svg" 2> /dev/null
grep -q "<svg" "$smoke/serve_trace.svg" && grep -q "</svg>" "$smoke/serve_trace.svg" || {
    echo "verify: kc_trace did not produce an SVG"; exit 1; }
grep -q "<rect" "$smoke/serve_trace.svg" || {
    echo "verify: kc_trace SVG has no spans"; exit 1; }
grep -q ">serve<" "$smoke/serve_trace.svg" || {
    echo "verify: kc_trace SVG has no serve lane"; exit 1; }
echo "kc_trace rendered the serve trace as an SVG timeline"

echo "== loadgen: warm SLO gate, impossible-bound detection =="
# Deadline-free byte-identity is covered above: the jobs-1-vs-8 and
# golden-transcript gates push deadline-free streams through the
# deadline-aware scheduler and batcher and demand identical bytes.
./target/release/kc-loadgen \
    --noise-free --store "$smoke/cells.json" --warm \
    --rps 400 --duration-ms 1500 --seed 7 --deadline-ms 5000 \
    --malformed-every 50 \
    --slo "p99_ms<=2000,overload_rate<=0.01,error_rate<=0.05,executions<=0,exactly_once_violations<=0" \
    > "$smoke/load_report.json" 2> "$smoke/load.log" || {
    echo "verify: loadgen SLO gate failed"; cat "$smoke/load.log"; exit 1; }
if ./target/release/kc-loadgen --noise-free --store "$smoke/cells.json" --warm \
    --rps 200 --duration-ms 500 --seed 7 --slo "p99_ms<=0.00001" \
    > /dev/null 2> /dev/null; then
    echo "verify: an impossible SLO bound was not detected"; exit 1
fi
echo "loadgen: SLO pass on warm serving, impossible bound exits 1"

echo "== benchmark: harness tests, then one driver-mode run that must pass its gates =="
# same target directory as run.sh, so the harness reuses the crates
# the workspace tests just compiled
CARGO_TARGET_DIR=target cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/run.sh --workload tables_warm --seed 1 --seconds 2 --trace 0 \
    2> "$smoke/benchmark.log" | tail -n 1 > "$smoke/benchmark.json" || {
    echo "verify: benchmark/run.sh failed"; tail -20 "$smoke/benchmark.log"; exit 1; }
jq -e .correct "$smoke/benchmark.json" > /dev/null || {
    echo "verify: the tables_warm benchmark run failed its correctness gates"
    cat "$smoke/benchmark.json"; exit 1; }
echo "benchmark harness tests pass; tables_warm ran with every gate green"

echo "== docs (no rustdoc warnings) =="
doc_log=$(cargo doc --no-deps --workspace 2>&1) || { echo "$doc_log"; exit 1; }
if echo "$doc_log" | grep -q "^warning"; then
    echo "$doc_log" | grep -A4 "^warning"
    echo "verify: rustdoc warnings"
    exit 1
fi

echo "== smoke: BT class-S table via the campaign engine =="
cargo run --release -p kc-experiments --bin paper_tables -- bt-s --noise-free --metrics

echo "verify: OK"
