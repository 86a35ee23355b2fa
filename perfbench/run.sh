#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload mine-cold --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch state all stay
# under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
