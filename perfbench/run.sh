#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build and the Go caches
# stay inside the checkout, under $CARGO_TARGET_DIR (.bench_build by
# default), and the Go toolchain is never downloaded.
set -euo pipefail

root=$(pwd)
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$build"

export GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
