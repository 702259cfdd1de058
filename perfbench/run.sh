#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload vm-churn --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
