#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds bench/e2e and runs it with the
# given flags. Run from the repository root. The build cache, temporary
# files, WAL data and span files all stay under .bench_build/ in the
# working directory, so a run writes nothing outside its checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench/e2e ]; then
	echo "bench/run.sh: run from the root of a checkout that holds go.mod and bench/e2e" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/stark-e2e" ./bench/e2e
exec "$build/stark-e2e" -dir "$build/run" "$@"
