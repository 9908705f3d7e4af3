#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig4-paper --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
