#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# one workload:
#
#   bash benchmark/run.sh --workload serve_warm --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build and module caches and all run files (result
# stores, traces, profiles) stay under .bench_build/ at the checkout root. The
# last line on standard output is the JSON result; see benchmark/README.md.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/experiments" ]; then
    echo "benchmark: $root holds no bpredpower sources to build" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS="" GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$build/bin/bpbenchmark" .)
exec "$build/bin/bpbenchmark" -root "$root" "$@"
