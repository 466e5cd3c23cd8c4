#!/usr/bin/env bash
# Builds the repository benchmark from source in the checkout it runs in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-fig2 --seed 1 --seconds 20 --trace 0
#
# Build products and the Go build cache stay under .bench_build/ in the
# checkout; the build log goes to standard error, so standard output
# carries only the benchmark's report.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
