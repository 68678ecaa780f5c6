#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload static-query --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary build files and trace files stay
# under .bench_build/ in the checkout. Without the repository's sources next
# to perfbench/ the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
