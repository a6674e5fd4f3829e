#!/usr/bin/env bash
# Builds the benchmark and flexnetd from source into .bench_build/ at the
# root of the checkout and runs the benchmark with the arguments given.
# Everything the build and the run write (Go's build cache included)
# stays inside the checkout.
#
#   bash benchmark/run.sh                                   # all four workloads, timed and traced
#   bash benchmark/run.sh --workload fabric_light --seed 3 --seconds 12 --trace 0
#   bash benchmark/run.sh --selfcheck
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/out"

# The go tool's cache, temporary files, module cache and per-user state
# (telemetry counters, go env file) all land under .bench_build/.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(
	cd "$here"
	go build -o "$build/bin/benchmark" .
	go build -o "$build/bin/flexnetd" flexnet/cmd/flexnetd
) >&2

export TMPDIR="$build/tmp"
exec "$build/bin/benchmark" --flexnetd "$build/bin/flexnetd" --out "$build/out" "$@"
