#!/usr/bin/env bash
# Builds the benchmark together with the program it measures, from the
# sources of this checkout, and runs it with the arguments given. Every file
# the build and the run leave behind stays inside the checkout: the build
# cache, the go command's counters and the binary under .bench_build/, traces
# under bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
XDG_CONFIG_HOME="$build/config" go build -C bench -o "$build/scanbench" .
exec "$build/scanbench" "$@"
