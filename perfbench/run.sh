#!/usr/bin/env bash
# Builds batserve and the benchmark into .bench_build, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under .bench_build: the Go
# build cache and temporary directories are pointed there too.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go build -o "$out/batserve" ./cmd/batserve
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -batserve "$out/batserve" -workdir "$out" "$@"
