#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# arguments given.  Everything the build writes (Go's build cache included)
# goes under .bench_build/ at the root of the checkout, which .gitignore names.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/perf" build -o "$build/perf" .
cd "$root"
exec "$build/perf" "$@"
