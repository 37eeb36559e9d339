#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs
# it with the given arguments, e.g. from the checkout root:
#
#   bash perfbench/run.sh --workload metro-slice --seed 1 --seconds 30 --trace 0
#
# Every build product and Go cache stays under .bench_build/ in the
# checkout. Build output goes to stderr; the benchmark's last stdout
# line is its JSON result.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
