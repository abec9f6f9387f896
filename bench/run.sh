#!/usr/bin/env bash
# The one command behind BENCHMARK.json: build the benchmark from source
# inside the checkout (build cache and binary under .bench_build/, nothing
# outside the checkout is written) and run it with the caller's flags.
# Run from the repository root: bash bench/run.sh -workload sim-base -seed 1
set -euo pipefail
root="$PWD"
export GOCACHE="$root/.bench_build/go-cache"
# The net backend and the coordinator put their unix sockets under TMPDIR.
export TMPDIR="$root/.bench_build/tmp"
mkdir -p "$TMPDIR"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
# No module is downloaded (the only requirement is replaced by ../), but go
# wants the directories to exist somewhere it may write.
export GOPATH="$root/.bench_build/gopath" GOMODCACHE="$root/.bench_build/gopath/pkg/mod"
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
go build -C "$root/bench" -o "$root/.bench_build/sdsm-bench" .
exec "$root/.bench_build/sdsm-bench" "$@"
