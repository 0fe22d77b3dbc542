#!/usr/bin/env bash
# Entry point for the acceptance driver (BENCHMARK.json's "command"):
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds the harness into .bench_build/ in the checkout, keeps the go
# tool's caches and temporaries there too, and runs it. Everything it
# writes is inside the checkout; .bench_build/ and benchmark/out/ are in
# .gitignore.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bin/benchmark"

mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath"
# XDG_CONFIG_HOME: the go tool keeps telemetry counters under it.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

# Always through go build: with the cache in .bench_build an unchanged
# tree costs a quarter of a second, and the go tool, unlike a comparison
# of file times, knows everything the harness is built from.
(cd "$here" && go build -o "$bin" .)
exec "$bin" -root "$root" "$@"
