#!/usr/bin/env bash
# Builds amf-server and the benchmark from this checkout and runs
# the benchmark against that server binary. Every build output, cache and
# data directory stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/amf-server" ./cmd/amf-server)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/amf-server" -work "$out/run" "$@"
