#!/usr/bin/env bash
# Cross-commit refactoring oracle. The tier-1 tests compare two runs of the
# *same* commit; this writes what a behaviour-preserving change must leave
# untouched, so that two commits can be compared:
#
#   scripts/oracle.sh /tmp/parent      # in a checkout of the parent commit
#   scripts/oracle.sh /tmp/change      # in the changed tree
#   diff -r /tmp/parent /tmp/change    # empty iff nothing observable moved
#
# One sub-directory per harness (fig12 and fig13 both write
# BENCH_overlay.json); every artifact is seed-determined, so the files are
# compared as written. `table1/` and `ablation/` hold those bins' stdout.
# `perf/` holds one untraced round of each perf ledger workload that runs the
# simulator or the Grid: its output digest, attempted/failed counts and
# seed-determined `sim_*` values, host-time lines dropped.
set -euo pipefail
out=$(mkdir -p "$1" && cd "$1" && pwd)
cd "$(dirname "$0")/.."
manifest=$PWD/Cargo.toml
cargo build --release -q -p glare-bench --bins

harness() { # harness <bin> [args...]: run it inside $out/<bin>; stdout goes to $keep there
    local bin=$1
    shift
    mkdir -p "$out/$bin"
    (cd "$out/$bin" && cargo run --release -q -p glare-bench \
        --manifest-path "$manifest" --bin "$bin" -- "$@" >"${keep:-/dev/null}" 2>/dev/null)
}
harness fig12 --trace
harness fig13
for bin in healthreport chaos load scale grayfail autonomic; do
    harness "$bin" --smoke
done
keep=table1.json harness table1 --json
keep=ablation.txt harness ablation

mkdir -p "$out/perf"
for workload in overlay_10k load_2x provision_storm; do
    cargo run --release -q --manifest-path perf/Cargo.toml -- round \
        --workload "$workload" --trace 0 --micro 0 --spawned-at 0 |
        grep -E '^(digest|attempted|failed|value (sim_|ok_share))' >"$out/perf/$workload.txt"
done
echo "oracle: wrote $(find "$out" -type f | wc -l) files under $out"
