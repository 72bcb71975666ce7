#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into the checkout and runs it with the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the build writes - binary, Go build cache, module cache -
# stays under .bench_build in the checkout, so a run reads and writes
# nothing outside it and needs no HOME.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
