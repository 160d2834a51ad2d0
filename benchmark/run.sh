#!/usr/bin/env bash
# Builds xqserve and the benchmark from the working tree, then runs the
# benchmark with the arguments given. Everything it writes — Go's build
# cache included — stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/xqserve" ./cmd/xqserve
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
