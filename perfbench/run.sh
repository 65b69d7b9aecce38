#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# checkout root; every argument is passed on, e.g.
#   bash perfbench/run.sh --workload chip-16x16 --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache and run outputs stay under .bench_build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg"

if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin"
fi
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

go -C perfbench build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" "$@"
