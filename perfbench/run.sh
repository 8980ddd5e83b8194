#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the checkout root:
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 15 --trace 0
# All build state (Go build cache, binary, temp dirs, trace files) stays
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
