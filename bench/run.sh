#!/usr/bin/env bash
# Builds the benchmark and the recipeserver binary from this checkout,
# then runs the benchmark with the given arguments, e.g.
#
#   bash bench/run.sh --workload annotate-hot --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare base.json head.json
#
# Everything built or written stays under .bench_build/ in the
# checkout, including the Go build cache, so the first run compiles the
# standard library and later runs reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gomodcache"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go build -o "$out/bin/recipeserver" ./cmd/recipeserver 1>&2
(cd bench && go build -o "$out/bin/bench" .) 1>&2
exec "$out/bin/bench" "$@"
