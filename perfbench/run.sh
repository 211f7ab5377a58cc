#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload tpch-mem --seed 1 --seconds 25 --trace 0
# Everything it builds and writes stays under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
