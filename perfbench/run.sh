#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload saturate --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache and traces stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod and internal/ here)" >&2
	exit 2
fi
bench=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
