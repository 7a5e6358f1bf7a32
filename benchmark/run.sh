#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds ./benchmark from source with
# every build output kept under .bench_build in the checkout it is run
# from — the Go build cache, the module path and the compiler's and
# linker's temporary files too, so that nothing is written outside the
# checkout — then runs it with the driver's arguments. Outside a checkout
# of the repo the build fails and so does this script.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
