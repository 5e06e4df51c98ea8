#!/usr/bin/env bash
# bench.sh — the benchmark's entry point (BENCHMARK.json's command).
#
# Builds bench/uvmperf from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given, from that root. Go's
# build cache, module cache and temporary files are kept under
# .bench_build/ too, so a run reads and writes nothing outside its
# checkout and needs no HOME.
#
#   bash bench/bench.sh --workload anon_fault --seed 1 --seconds 10 --trace 0
#   bash bench/bench.sh -runs 5 -out bench/out/set1.json     # every workload
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp GOFLAGS=-modcacherw
go build -C bench -o "$build/uvmperf" ./uvmperf
exec "$build/uvmperf" "$@"
