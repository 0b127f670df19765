#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload sweep_cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a sparkgo checkout. Everything the build and
# the run write (Go build cache, binary, scratch caches, trace files)
# stays under .bench_build/ in that checkout. Build output goes to
# standard error, so the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$out/sparkbench" . >&2
exec "$out/sparkbench" "$@"
