#!/usr/bin/env bash
# Tier-1 verification gate: everything CI (and reviewers) require green.
#   1. release build of the whole workspace, all targets
#   2. the full test suite — every acceptance check lives here: the paper's
#      shapes (table1, fig10-13), each scenario's invariants at its `--smoke`
#      parameters (health, chaos, scale, load, autonomic, grayfail), same-seed
#      byte identity and the disabled == absent event digests are unit tests
#      of `crates/bench` (CHANGES.md, PR 18, maps every former shell gate to
#      its test); the allocation pins run here too, each its own test binary
#      with the counting allocator of crates/fabric/tests/support/:
#      fabric's steady_state_allocations, glare-core's probe_visit_allocations
#      and grid_request_allocations; tests/source_budget.rs holds three
#      ratchets: file length, function length, and the pub fields left on
#      each policy struct (a settable value may only go away)
#   3. clippy with warnings promoted to errors
#   4. rustdoc with warnings promoted to errors
#   5. the cross-commit oracle run twice on this commit: every harness binary
#      must run, write its artifacts (a bin exits 1 if it cannot, 2 on a bad
#      argument) and write the same bytes both times
#   6. perf ledger (perf/README.md): the ledger package's own tests, then one
#      short `run` pass over its five workloads, whose correctness checks
#      (every query hits, admission accounting, replay restores, same digest
#      and sim_* values on every round, no metric at 0) exit non-zero; no
#      timing is gated here
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> oracle.sh twice: every harness runs and is byte-identical run to run"
oracle_dir=$(mktemp -d)
trap 'rm -rf "$oracle_dir"' EXIT
scripts/oracle.sh "$oracle_dir/a"
scripts/oracle.sh "$oracle_dir/b"
diff -r "$oracle_dir/a" "$oracle_dir/b"

echo "==> perf ledger: cargo test, then run --seconds 4 (correctness checks only)"
cargo test -q --manifest-path perf/Cargo.toml
cargo run --release -q --manifest-path perf/Cargo.toml -- run --seconds 4 >/dev/null

echo "verify: OK"
