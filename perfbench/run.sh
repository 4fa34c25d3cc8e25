#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# trace spans stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
bin="$out/perfbench"
go -C perfbench build -trimpath -buildvcs=false -o "$bin.tmp.$$" .
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" "$@"
