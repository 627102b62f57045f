#!/usr/bin/env bash
# Builds the shipped binaries and the benchmark harness from this
# checkout, then runs the harness. Run from the checkout root:
#
#   bash perfbench/run.sh --workload study-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files and the binaries.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/powerstudy" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and usage counters under the user
# config directory; point it into the checkout too.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bin/" ./cmd/powerstudy ./cmd/powerd ./cmd/pmsched ./cmd/calibrate
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
