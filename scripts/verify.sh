#!/usr/bin/env bash
# Tier-1 verification gate: everything CI (and reviewers) require green.
#   1. release build of the whole workspace, all targets
#   2. the full test suite — every acceptance check lives here: the paper's
#      shapes (table1, fig10-13), each scenario's invariants at its `--smoke`
#      parameters (health, chaos, scale, load, autonomic, grayfail), same-seed
#      byte identity are unit tests
#      of `crates/bench` (CHANGES.md, PR 18, maps every former shell gate to
#      its test); the allocation pins run here too, each its own test binary
#      with the counting allocator of crates/fabric/tests/support/:
#      fabric's steady_state_allocations and event_log_allocations (a kept
#      query.shed record holds 72 bytes and, once the log's columns have
#      grown, allocates nothing), glare-core's probe_visit_allocations,
#      grid_request_allocations, registry_read_allocations (a warm ATR
#      lookup, the request envelope, the reply, an MDS query_by_name at
#      registry_read's 300 types) and node_build_allocations (one
#      overlay_10k site's build, owned or shared types; an empty ADR
#      allocates nothing);
#      tests/source_budget.rs holds four
#      ratchets: file length, function length, the pub fields left on each
#      policy struct (a settable value may only go away) and each crate's
#      count of pub items (crate-internal code is pub(crate), so clippy
#      below reports it once nothing calls it), and it fails on any
#      allow(dead_code) / allow(unused…) that would silence that report
#   3. clippy with warnings promoted to errors
#   4. rustdoc with warnings promoted to errors
#   5. each of the five examples once (ondemand_deployment drives the
#      Expect engine over a planned deploy-file and asserts the install)
#   6. the cross-commit oracle run twice on this commit: every harness binary
#      must run, write its artifacts (a bin exits 1 if it cannot, 2 on a bad
#      argument; chaos, grayfail, autonomic and load also exit 1 after
#      writing them when their report lists an invariant violation) and write
#      the same bytes both times
#   7. perf ledger (perf/README.md): the ledger package's own tests, then one
#      short `run` pass over its five workloads, whose correctness checks
#      (every query hits, admission accounting, replay restores, same digest
#      and sim_* values on every round, no metric at 0) exit non-zero; then
#      one traced `round --micro 1` per workload, the only pass that drives
#      perf/src/micro.rs (every per-layer micro measurement, the XPath
#      compile/select/memo among them), which panics if a call it makes
#      fails (~10 s; writes perf/out/trace_<workload>.json); no timing is
#      gated here
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

echo "==> examples: each runs once and exits 0 (ondemand_deployment asserts its plan installs)"
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> oracle.sh twice: every harness runs and is byte-identical run to run"
oracle_dir=$(mktemp -d)
trap 'rm -rf "$oracle_dir"' EXIT
scripts/oracle.sh "$oracle_dir/a"
scripts/oracle.sh "$oracle_dir/b"
diff -r "$oracle_dir/a" "$oracle_dir/b"

echo "==> perf ledger: cargo test, run --seconds 4, one micro round per workload (no timing gated)"
cargo test -q --manifest-path perf/Cargo.toml
cargo run --release -q --manifest-path perf/Cargo.toml -- run --seconds 4 >/dev/null
for workload in overlay_10k load_2x registry_read registry_churn provision_storm; do
    cargo run --release -q --manifest-path perf/Cargo.toml -- round \
        --workload "$workload" --trace 1 --micro 1 >/dev/null
done

echo "verify: OK"
