#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload dg_selinv_p16 --seed 1 --seconds 50 --trace 0
#
# Build outputs, the Go build cache, span files and exact-repeat records all
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a pselinv checkout (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTELEMETRY=off \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --state-dir "$out" "$@"
