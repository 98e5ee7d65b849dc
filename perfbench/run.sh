#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout it is run
# from, then runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper_cold --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, temporary files,
# the warm_restart artifact store, span dumps) stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	GOPROXY=off GOSUMDB=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -repo "$root" "$@"
