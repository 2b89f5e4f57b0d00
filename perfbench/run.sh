#!/usr/bin/env bash
# Builds the benchmark and galois-serve from this checkout's sources,
# then runs the benchmark with the arguments given:
#
#   bash perfbench/run.sh --workload cold|prompt-hit|serve --seed N \
#        --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off

go build -o "$out/bin/galois-serve" ./cmd/galois-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --serve-bin "$out/bin/galois-serve" --work-dir "$out" "$@"
