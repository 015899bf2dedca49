#!/usr/bin/env bash
# Builds the fluxtrack benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload track-exact --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, module cache, toolchain config, the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
