#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload cold_batch --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
