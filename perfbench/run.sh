#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ at the checkout root. The build needs the repository
# (perfbench/go.mod replaces anonmix with ../), so outside a full checkout
# this script fails before running anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/bin/perfbench" . >&2
cd "$root"
exec "$build/bin/perfbench" "$@"
