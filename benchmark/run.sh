#!/usr/bin/env bash
# Build the release binaries the benchmark drives (paper_tables,
# kc_served, kc_regime) and the benchmark itself, then run
# the benchmark with the arguments given (none: `run`, every workload
# round-robin with every end-to-end metric printed by name).
#
#   benchmark/run.sh                      # = kc-benchmark run
#   benchmark/run.sh trace                # per-layer metrics + benchmark/out/trace.json
#   benchmark/run.sh repeat               # two sets, compared against the bounds
#   benchmark/run.sh --workload tables_warm --seed 3 --seconds 20 --trace 0
#
# Run from the repository root.  Everything is built offline into
# $CARGO_TARGET_DIR (default: target/), so the in-process probes and
# the measured binaries share one set of compiled crates.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: run from the root of the kernel-couplings repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Cargo reads a relative target directory against its own working
# directory; the benchmark package is built from the same one.
cargo build --release --offline -p kc-experiments -p kc-regime >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
if [ "$#" -eq 0 ]; then
    set -- run
fi
# (not `exec`: the benchmark reads its children's resource usage, and
# an exec'd process would inherit this shell's children, the compilers)
"$CARGO_TARGET_DIR/release/kc-benchmark" "$@"
