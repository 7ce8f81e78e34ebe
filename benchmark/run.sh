#!/usr/bin/env bash
# Builds the benchmark of record from source and runs it. Everything the
# build and the run leave behind stays under .bench_build/ and
# benchmark/out/ in the checkout (both git-ignored); nothing is fetched.
#
#   bash benchmark/run.sh --workload fig7_unnest --seed 1 --seconds 18 --trace 0
#
# See benchmark/README.md for every mode.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/disqo-benchmark" . >&2
cd "$root"
exec "$build/disqo-benchmark" "$@"
