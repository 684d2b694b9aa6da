#!/usr/bin/env bash
# Entry point named in BENCHMARK.json. Builds the benchmark from source
# inside the checkout and runs it with the arguments given:
#
#   bash bench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# Everything the toolchain writes (build cache, binaries) goes under
# .bench_build in the checkout root; results go under bench/out.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local
export GOPROXY=off

# bench/ is a module of its own that replaces ftcms with the checkout
# root, so this fails (and the script with it) where the repository's
# source is absent.
(cd "$root/bench" && go build -o "$build/bench" .)

cd "$root"
exec "$build/bench" "$@"
