#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Everything the build leaves behind stays under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C benchmark -o "$build/memorydb-benchmark" .
exec "$build/memorydb-benchmark" "$@"
