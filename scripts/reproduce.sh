#!/usr/bin/env bash
# Regenerates every table, figure and ablation of the reproduction.
# Usage: scripts/reproduce.sh [output-dir]
set -euo pipefail

out="${1:-reproduction-output}"
mkdir -p "$out"

echo "== building (release) =="
cargo build --release -p tpn-bench

run() {
    local name="$1"
    shift
    echo "== $name =="
    ./target/release/"$name" "$@" | tee "$out/$name.txt"
    echo
}

run table1
run table2
run scaling
run bounds_check
run compare
run buffering
run latency
run modulo
run conform
run exec
run analytic --bench-json BENCH_7.json
echo "== figures =="
./target/release/figures all > "$out/figures.txt"
echo "figures written to $out/figures.txt"

echo "== criterion micro-benchmarks =="
cargo bench --workspace 2>&1 | tee "$out/criterion.txt"

echo
echo "All outputs in $out/. Compare against EXPERIMENTS.md."
