#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from this checkout's source
# and run it with the given arguments. Every build product and temporary file
# (Go's build cache and work directory, the binary, the benchmark's checkpoint
# directories) lands under .bench_build/ at the checkout's root, so nothing
# outside the checkout is written.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go build -C "$root/bench" -o "$build/hetgc-bench" .
cd "$root"
exec "$build/hetgc-bench" "$@"
