#!/usr/bin/env bash
# Builds nsserve and the benchmark driver from this checkout, then runs
# one benchmark workload:
#
#   bash servebench/run.sh --workload skyline-reads --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root (Go build cache included).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off CGO_ENABLED=0
cd "$root"
go build -o "$out/nsserve" ./cmd/nsserve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -nsserve "$out/nsserve" -work "$out/work" "$@"
