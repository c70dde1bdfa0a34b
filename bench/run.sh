#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload search --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache, run state and spans stay under
# .bench_build/ in the working directory; the history goes to
# bench/history.jsonl.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
