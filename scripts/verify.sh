#!/usr/bin/env bash
# Tier-1 verification gate: everything CI (and reviewers) require green.
#   1. release build of the whole workspace, all targets
#   2. the full test suite
#   3. clippy with warnings promoted to errors
#   4. rustdoc with warnings promoted to errors
#   5. smoke runs of the ablation and traced fig12 binaries
#   6. healthreport smoke on a small topology: BENCH_health.json must be
#      produced, parse as JSON, and carry zero metric-name lint violations
#   7. chaos soak smoke (fixed seed, one ≥1% loss point): BENCH_chaos.json
#      must parse and report zero invariant violations and lint-clean
#      retry/breaker metric names; BENCH_recovery.json must parse and
#      carry completed crash-to-rejoin recoveries with nonzero percentiles
#   8. scale smoke: BENCH_scale.json must parse, the kernel must report
#      nonzero events/sec, every query must hit, and the depth-3 tree's
#      hops per query must be strictly below the flat-broadcast baseline
#   9. load smoke: BENCH_load.json must parse, report zero admission-
#      invariant violations and lint-clean shed counters, show gold
#      holding goodput while best-effort sheds first past saturation,
#      stay byte-identical across two same-seed runs (deterministic
#      half), and with backpressure off two same-seed runs must be
#      event-identical (same event digests)
#  10. autonomic smoke: BENCH_autonomic.json must parse, report zero
#      safety-invariant violations (replica bounds, dead-site actions,
#      double-provisions), show gold p99 recovering to within 25% of its
#      pre-spike baseline with the controller enabled and NOT recovering
#      with it disabled, stay byte-identical across two same-seed runs
#      (deterministic half), and a disabled-controller run must be
#      event-identical to a controller-never-constructed run
#  11. grayfail smoke: BENCH_grayfail.json must parse, be lint-clean,
#      stay byte-identical across two same-seed runs (deterministic
#      half), report zero false-positive takeovers in every mode, show
#      the gray-phase gold p99 with suspicion+hedging enabled within 2x
#      the healthy baseline while the disabled run exceeds 5x (and the
#      hedged run beating the unhedged one outright), and a disabled
#      gray stack must be event-identical to one never constructed
#  12. crash-replay smoke: after a crash, store recovery and anti-entropy
#      rejoin must converge to registries byte-identical (digest match,
#      zero tombstone resurrections) to a never-crashed same-seed run
#  13. perf ledger (perf/README.md): the ledger package's own tests, then
#      one short `run` pass over its five workloads, whose correctness
#      checks (every query hits, admission accounting, replay restores,
#      same digest and sim_* values on every round, no metric at 0) exit
#      non-zero; no timing is gated here
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

echo "==> smoke: ablation"
cargo run --release -q -p glare-bench --bin ablation >/dev/null

echo "==> smoke: fig12 --trace (writes BENCH_overlay.json + TRACE_fig12.json)"
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin fig12 -- --trace >/dev/null)
for artifact in BENCH_overlay.json TRACE_fig12.json; do
    test -s "$smoke_dir/$artifact" || { echo "missing $artifact"; exit 1; }
done
rm -rf "$smoke_dir"

echo "==> smoke: healthreport --smoke (writes BENCH_health.json + events + exposition)"
health_dir=$(mktemp -d)
(cd "$health_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin healthreport -- --smoke >/dev/null)
for artifact in BENCH_health.json HEALTH_events.jsonl HEALTH_metrics.prom; do
    test -s "$health_dir/$artifact" || { echo "missing $artifact"; exit 1; }
done
python3 - "$health_dir/BENCH_health.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["experiment"] == "healthreport", "unexpected experiment tag"
assert report["sites"], "health report has no site rows"
assert report["lint"] == [], f"metric-name lint violations: {report['lint']}"
EOF
rm -rf "$health_dir"

echo "==> smoke: chaos --smoke (writes BENCH_chaos.json + events)"
chaos_dir=$(mktemp -d)
(cd "$chaos_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin chaos -- --smoke >/dev/null)
for artifact in BENCH_chaos.json BENCH_recovery.json CHAOS_events.jsonl; do
    test -s "$chaos_dir/$artifact" || { echo "missing $artifact"; exit 1; }
done
python3 - "$chaos_dir/BENCH_chaos.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["experiment"] == "chaos", "unexpected experiment tag"
assert report["rows"], "chaos report has no sweep rows"
assert any(r["loss"] >= 0.01 for r in report["rows"]), "no loss point >= 1%"
assert report["violations_total"] == 0, \
    f"chaos invariant violations: {report['invariant_violations']}"
assert report["lint"] == [], f"metric-name lint violations: {report['lint']}"
EOF
python3 - "$chaos_dir/BENCH_recovery.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["experiment"] == "recovery", "unexpected experiment tag"
assert report["overall"]["recoveries"] > 0, "no crash-to-rejoin recoveries completed"
assert report["overall"]["p95_ms"] > 0, "recovery percentiles are empty"
assert report["grid"]["replayed_records"] > 0, "grid restart replayed nothing"
EOF
rm -rf "$chaos_dir"

echo "==> smoke: scale --smoke (writes BENCH_scale.json)"
scale_dir=$(mktemp -d)
(cd "$scale_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin scale -- --smoke >/dev/null)
test -s "$scale_dir/BENCH_scale.json" || { echo "missing BENCH_scale.json"; exit 1; }
python3 - "$scale_dir/BENCH_scale.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "glare.scale.v1", "unexpected schema tag"
det = report["deterministic"]["points"]
wall = report["wall_clock"]["points"]
assert det and wall, "scale report has no sweep points"
assert all(p["events_per_sec"] > 0 for p in wall), "kernel reported zero throughput"
assert all(p["hits"] == p["queries"] > 0 for p in det), "unresolved queries"
tree = {p["sites"]: p for p in det if not p["flood"]}
flood = {p["sites"]: p for p in det if p["flood"]}
assert tree and flood, "missing tree or flood rows"
for n, t in tree.items():
    assert t["hops_per_query"] < flood[n]["hops_per_query"], \
        f"{n} sites: tree hops {t['hops_per_query']} not below flood {flood[n]['hops_per_query']}"
EOF
rm -rf "$scale_dir"

echo "==> smoke: load --smoke (writes BENCH_load.json)"
load_dir=$(mktemp -d)
load_dir2=$(mktemp -d)
(cd "$load_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin load -- --smoke >/dev/null)
(cd "$load_dir2" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin load -- --smoke >/dev/null)
test -s "$load_dir/BENCH_load.json" || { echo "missing BENCH_load.json"; exit 1; }
python3 - "$load_dir/BENCH_load.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "glare.load.v1", "unexpected schema tag"
det = report["deterministic"]["points"]
assert det, "load report has no sweep points"
assert all(p["invariant_violations"] == 0 for p in det), \
    "admission-invariant violations in the sweep"
assert all(p["lint_errors"] == 0 for p in det), "shed counters failed the metric-name lint"
by_factor = {p["factor"]: p for p in det}
top = by_factor[max(by_factor)]
rows = {t["class"]: t for t in top["tenants"]}
assert rows["best_effort"]["shed"] > 0, "past saturation best-effort must shed"
assert rows["gold"]["shed"] <= rows["best_effort"]["shed"], "gold shed before best-effort"
gold_pre = {t["class"]: t for t in by_factor[1.0]["tenants"]}["gold"]["goodput_hz"]
assert rows["gold"]["goodput_hz"] >= 0.9 * gold_pre, \
    f"gold goodput collapsed: {rows['gold']['goodput_hz']:.1f}/s at 2x vs {gold_pre:.1f}/s at 1x"
EOF
python3 - "$load_dir/BENCH_load.json" "$load_dir2/BENCH_load.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["deterministic"] == b["deterministic"], \
    "deterministic half of BENCH_load.json diverged across same-seed runs"
EOF
echo "==> load: backpressure off is event-identical to enabled-with-headroom"
(cd "$load_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin load -- \
    --smoke --no-backpressure --factors 0.5 >/dev/null \
    && mv BENCH_load.json BENCH_load_off.json)
(cd "$load_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin load -- \
    --smoke --capacity 1000000 --factors 0.5 >/dev/null \
    && mv BENCH_load.json BENCH_load_headroom.json)
python3 - "$load_dir/BENCH_load_off.json" "$load_dir/BENCH_load_headroom.json" <<'EOF'
import json, sys
off, headroom = (json.load(open(p)) for p in sys.argv[1:3])
po = off["deterministic"]["points"][0]
ph = headroom["deterministic"]["points"][0]
assert po["event_digest"] == ph["event_digest"], \
    "admission with headroom perturbed the event stream"
assert po["events"] == ph["events"], "event counts diverged"
assert all(t["shed"] == 0 for t in po["tenants"] + ph["tenants"]), \
    "headroom run unexpectedly shed"
EOF
rm -rf "$load_dir" "$load_dir2"

echo "==> smoke: autonomic --smoke (writes BENCH_autonomic.json)"
auto_dir=$(mktemp -d)
auto_dir2=$(mktemp -d)
(cd "$auto_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin autonomic -- --smoke >/dev/null)
(cd "$auto_dir2" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin autonomic -- --smoke >/dev/null)
test -s "$auto_dir/BENCH_autonomic.json" || { echo "missing BENCH_autonomic.json"; exit 1; }
python3 - "$auto_dir/BENCH_autonomic.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "glare.autonomic.v1", "unexpected schema tag"
det = report["deterministic"]
assert det["invariant_violations"] == 0, \
    f"autonomic safety-invariant violations: {det['violations']}"
assert det["lint_errors"] == 0, "controller metrics failed the metric-name lint"
gold = det["gold"]
assert gold["recovered"], \
    f"gold p99 did not recover: pre {gold['p99_pre_ms']} post {gold['p99_post_ms']}"
assert gold["p99_post_ms"] <= 1.25 * gold["p99_pre_ms"], "recovery bound violated"
assert gold["recovery_after_flash_ms"] is not None, "flash spike never registered"
assert det["crash"]["types_lost"], "the late crash orphaned nothing"
assert det["crash"]["recovery_p95_ms"] > 0, "replica-floor restoration unmeasured"
applied = {(a["action"], a["outcome"]): a["count"] for a in det["actions"]}
assert applied.get(("provision", "applied"), 0) > 0, "no replicas were provisioned"
assert applied.get(("retire", "applied"), 0) > 0, "no cold replicas were retired"
assert applied.get(("reprovision", "applied"), 0) > 0, "no crash re-provisioning"
assert any(o == "lease_denied" for (_, o) in applied), \
    "the dueling controller never hit the lease guard"
EOF
python3 - "$auto_dir/BENCH_autonomic.json" "$auto_dir2/BENCH_autonomic.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["deterministic"] == b["deterministic"], \
    "deterministic half of BENCH_autonomic.json diverged across same-seed runs"
EOF
echo "==> autonomic: disabled must not recover; disabled == absent event stream"
(cd "$auto_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin autonomic -- --smoke --disabled >/dev/null \
    && mv BENCH_autonomic.json BENCH_autonomic_disabled.json)
(cd "$auto_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin autonomic -- --smoke --absent >/dev/null \
    && mv BENCH_autonomic.json BENCH_autonomic_absent.json)
python3 - "$auto_dir/BENCH_autonomic_disabled.json" "$auto_dir/BENCH_autonomic_absent.json" <<'EOF'
import json, sys
disabled, absent = (json.load(open(p)) for p in sys.argv[1:3])
gold = disabled["deterministic"]["gold"]
assert not gold["recovered"], "without the controller the hot-spot must persist"
assert disabled["deterministic"]["event_digest"] == absent["deterministic"]["event_digest"], \
    "a disabled controller perturbed the event stream"
assert disabled["deterministic"]["events"] == absent["deterministic"]["events"], \
    "event counts diverged between disabled and absent"
EOF
rm -rf "$auto_dir" "$auto_dir2"

echo "==> smoke: grayfail --smoke (writes BENCH_grayfail.json)"
gray_dir=$(mktemp -d)
gray_dir2=$(mktemp -d)
(cd "$gray_dir" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin grayfail -- --smoke >/dev/null)
(cd "$gray_dir2" && cargo run --release -q -p glare-bench \
    --manifest-path "$OLDPWD/Cargo.toml" --bin grayfail -- --smoke >/dev/null)
test -s "$gray_dir/BENCH_grayfail.json" || { echo "missing BENCH_grayfail.json"; exit 1; }
python3 - "$gray_dir/BENCH_grayfail.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "glare.grayfail.v1", "unexpected schema tag"
det = report["deterministic"]
runs = {r["mode"]: r for r in det["runs"]}
assert set(runs) == {"enabled", "disabled", "absent"}, f"unexpected modes: {set(runs)}"
for mode, r in runs.items():
    assert r["lint_errors"] == 0, f"{mode}: gray metrics failed the metric-name lint"
    assert r["violations"] == [], f"{mode}: scenario violations: {r['violations']}"
    assert r["false_takeovers"] == 0, \
        f"{mode}: a merely slow super-peer was declared dead"
assert runs["enabled"]["hedges"]["fired"] > 0, "the gray window never triggered a hedge"
assert runs["enabled"]["hedges"]["won"] > 0, "no hedged probe ever won its race"
assert runs["disabled"]["hedges"]["fired"] == 0, "hedges fired with the stack disabled"
assert det["enabled_within_2x"], \
    "gray-phase p99 with suspicion+hedging exceeded 2x the healthy baseline"
assert det["disabled_exceeds_5x"], \
    "the gray window did not hurt the unprotected run (disabled p99 <= 5x healthy)"
assert det["hedged_beats_unhedged"], "hedging-on gray p99 did not beat hedging-off"
assert det["disabled_matches_absent"], \
    "a disabled gray stack perturbed the event stream vs never-constructed"
EOF
python3 - "$gray_dir/BENCH_grayfail.json" "$gray_dir2/BENCH_grayfail.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
assert a["deterministic"] == b["deterministic"], \
    "deterministic half of BENCH_grayfail.json diverged across same-seed runs"
EOF
rm -rf "$gray_dir" "$gray_dir2"

echo "==> crash-replay smoke: recovered registries match a never-crashed same-seed run"
cargo test --release -q -p glare-core --lib \
    crash_with_store_recovers_and_digests_match >/dev/null
cargo test --release -q --test fault_tolerance \
    missed_uninstall_tombstone_wins_on_rejoin >/dev/null

echo "==> perf ledger: cargo test, then run --seconds 4 (correctness checks only)"
cargo test -q --manifest-path perf/Cargo.toml
cargo run --release -q --manifest-path perf/Cargo.toml -- run --seconds 4 >/dev/null

echo "verify: OK"
