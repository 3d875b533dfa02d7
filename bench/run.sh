#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the driver's command.
# Everything the build leaves behind stays under .bench_build in the
# checkout, the Go build cache included, so a checkout is measured
# without reading or writing outside it.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
cd "$bench"
go build -o "$build/riot-bench" .
exec "$build/riot-bench" "$@"
