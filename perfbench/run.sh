#!/usr/bin/env bash
# Builds gsgcn-serve and the benchmark from this checkout's sources,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload reddit-json --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gsgcn-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/gsgcn-serve and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
go build -o "$out/gsgcn-serve" ./cmd/gsgcn-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --serve-bin "$out/gsgcn-serve" --work "$out/runs" "$@"
