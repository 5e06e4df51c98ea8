#!/usr/bin/env bash
# run.sh — measure this checkout several times over and check that the
# sets agree: N complete sets (default 2) of R untraced runs per workload
# (default 5) plus one traced run each, then `uvmperf -compare` of the
# first set against every later one, against the bounds in BENCHMARK.json.
# Exits non-zero if a run was incorrect or a cell regressed. This is the
# script a CI job runs; to compare two commits, run it in each checkout
# and compare the set files with `bash bench/bench.sh -compare A.json B.json`.
#
#   bash bench/run.sh [sets [runs]]
set -euo pipefail
cd "$(dirname "$0")/.."
sets=${1:-2}
runs=${2:-5}
for i in $(seq 1 "$sets"); do
  bash bench/bench.sh -runs "$runs" -out "bench/out/set$i.json"
done
status=0
for i in $(seq 2 "$sets"); do
  bash bench/bench.sh -compare bench/out/set1.json "bench/out/set$i.json" || status=$?
done
exit "$status"
