#!/usr/bin/env bash
# Builds the benchmark and svserver from the tree it is run in, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload engine_batch --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, binaries, temp dirs) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off GOENV=off GOPROXY=off

go build -o "$out/bin/svserver" ./cmd/svserver >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -svserver "$out/bin/svserver" "$@"
