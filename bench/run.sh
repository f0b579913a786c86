#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind (binary, Go build and module caches, the
# toolchain's own counters, temporary files) stays in .bench_build/ inside the
# checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
# The commit is stamped into the binary when the checkout is a git repository
# git can read; where it is not, the run record says "unknown".
go build -C bench -o "$build/posbench" . 2>/dev/null || go build -C bench -buildvcs=false -o "$build/posbench" .
exec "$build/posbench" "$@"
