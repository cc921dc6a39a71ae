#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it. Run from the
# repository root; arguments go to the benchmark, e.g.
#
#   bash hostbench/run.sh --workload sim-sor --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache and
# compiler temporaries) stays under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C hostbench -o "$out/hostbench" .
exec "$out/hostbench" "$@"
