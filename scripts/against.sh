#!/usr/bin/env bash
# The behaviour oracle (ROADMAP "working rules") against one revision, in one
# command: check <rev> out into a temporary `git worktree`, run this tree's
# scripts/oracle.sh in both trees and fail on any `diff -r` output. Given a
# workload, or a comma-separated list of them, then print their perf claim
# tables: scripts/pairs.sh, 10 pairs each, one table per workload.
#
#   scripts/against.sh <rev> [workload[,workload...]]
#   # e.g. scripts/against.sh HEAD~1 overlay_10k,registry_read
#
# The worktree runs this tree's oracle.sh, so both sides write the same files
# even when <rev> predates the current script. The worktree and every oracle
# output are removed on exit; a run killed outright leaves a stale worktree
# entry behind, which `git worktree prune` clears.
set -euo pipefail
[ $# -ge 1 ] || { sed -n '2,9p' "$0" >&2; exit 2; }
rev=$1
workload=${2:-}
here=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
tree=$work/tree
cleanup() {
    git -C "$here" worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$here" worktree add --detach -q "$tree" "$rev"
mkdir -p "$tree/scripts"
cp "$here/scripts/oracle.sh" "$tree/scripts/oracle.sh"
"$tree/scripts/oracle.sh" "$work/oracle/rev"
"$here/scripts/oracle.sh" "$work/oracle/change"
if ! diff -r "$work/oracle/rev" "$work/oracle/change"; then
    echo "against: behaviour differs from $rev (diff above)" >&2
    exit 1
fi
echo "against: oracle output identical to $rev"
[ -z "$workload" ] || "$here/scripts/pairs.sh" "$tree" "$here" "$workload" 10
