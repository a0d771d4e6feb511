#!/usr/bin/env bash
# The pair table a perf claim is judged by (ROADMAP "perf claim discipline"):
# alternating `perf run`s of a parent and a changed tree, one workload.
#
#   scripts/pairs.sh <parent-tree> <change-tree> <workload> [pairs=10] [seed=4212]
#
# Builds each tree's `perf/` into that tree's own `perf/target`, runs the two
# binaries in turn (odd pairs parent first, even pairs change first) at
# BENCHMARK.json's 15 s, and prints, for each host-time end-to-end metric:
# every pair, each side's median [q1, q3] (midpoint median and exclusive
# quartiles, the rule of `perf/src/stats.rs` and of the driver), in how many
# pairs the change was ahead (ties count for neither), and the gap between
# the medians against the parent's interquartile range. A run that is not
# `"correct":true` with `"failed":0` stops the script.
set -euo pipefail
[ $# -ge 3 ] || { sed -n '2,5p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-4212}
seconds=15
metrics="wall_s ops_per_s setup_s peak_rss_mb"

for tree in "$parent" "$change"; do
    cargo build --release -q --manifest-path "$tree/perf/Cargo.toml"
done

samples=$(mktemp)
trap 'rm -f "$samples"' EXIT

measure() { # measure <side> <tree> <pair>: append "<pair> <side> <metric> <value>" lines
    local out
    out=$(cd "$2" && perf/target/release/perf run --workload "$workload" \
        --seed "$seed" --seconds "$seconds")
    grep -q '^{"correct":true,.*"failed":0,' <<<"$out" ||
        { echo "pairs: $1 run of pair $3 failed its checks:" >&2; echo "$out" >&2; exit 1; }
    for m in $metrics; do
        awk -v m="$m" -v p="$3" -v s="$1" '$1 == m { print p, s, m, $2 }' <<<"$out" >>"$samples"
    done
}

for p in $(seq 1 "$pairs"); do
    if [ $((p % 2)) -eq 1 ]; then
        measure parent "$parent" "$p"
        measure change "$change" "$p"
    else
        measure change "$change" "$p"
        measure parent "$parent" "$p"
    fi
    echo "pair $p/$pairs done" >&2
done

echo "== $workload  seed $seed  $pairs alternating pairs of ${seconds} s runs  (parent -> change)"
for m in $metrics; do
    awk -v m="$m" -v n="$pairs" '
        function quantile(v, k, i,    pos, j) { # exclusive method, i-th quartile of k sorted values
            pos = i * (k + 1) / 4
            j = int(pos); if (j < 1) j = 1; if (j > k - 1) j = k - 1
            return v[j] + (v[j + 1] - v[j]) * (pos - j)
        }
        function summary(side, out,    k, i, v, tmp, j) {
            k = 0
            for (i = 1; i <= n; i++) v[++k] = val[side, i]
            for (i = 2; i <= k; i++)
                for (j = i; j > 1 && v[j - 1] > v[j]; j--) { tmp = v[j]; v[j] = v[j - 1]; v[j - 1] = tmp }
            out["median"] = k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
            out["q1"] = k > 1 ? quantile(v, k, 1) : v[1]
            out["q3"] = k > 1 ? quantile(v, k, 3) : v[1]
        }
        $3 == m { val[$2, $1] = $4 }
        END {
            lower = (m != "ops_per_s")
            printf "%s (%s is better)\n  pairs:", m, lower ? "lower" : "higher"
            for (i = 1; i <= n; i++) {
                a = val["parent", i]; b = val["change", i]
                printf " %.4g/%.4g", a, b
                if (a != b && ((b < a) == lower)) wins++
            }
            summary("parent", P); summary("change", C)
            gap = lower ? P["median"] - C["median"] : C["median"] - P["median"]
            iqr = P["q3"] - P["q1"]
            printf "\n  parent %.6g [%.6g, %.6g] -> change %.6g [%.6g, %.6g]  ratio %.3f\n",
                P["median"], P["q1"], P["q3"], C["median"], C["q1"], C["q3"], C["median"] / P["median"]
            verdict = (gap > iqr) ? "gap > IQR" : "gap within IQR"
            printf "  change ahead %d/%d   gap %.4g vs parent IQR %.4g (%s)\n", wins, n, gap, iqr, verdict
        }' "$samples"
done
