#!/usr/bin/env bash
# Builds the benchmark from the checkout it belongs to and runs it with the
# given arguments, for example from the repository root:
#
#   bash benchmark/run.sh --workload noop-rtt --seed 1 --seconds 20 --trace 0
#
# Go's build cache and everything else the toolchain writes go under
# .bench_build at the repository root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-build" GOMODCACHE="$out/go-mod" GOPATH="$out/go" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
