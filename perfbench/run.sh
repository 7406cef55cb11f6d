#!/usr/bin/env bash
# Builds the FaultyRank benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload offline-tcp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, traces, temporary tracker state) stays
# under .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
