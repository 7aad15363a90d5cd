#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see bench/README.md). Everything the
# build and the runs write stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# No downloads: the toolchain on PATH and the standard library only.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its settings and telemetry under the user config
# directory; keep those in the checkout too.
export XDG_CONFIG_HOME="$build/config"
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
